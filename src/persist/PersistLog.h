//===- persist/PersistLog.h - Append-only checksummed record log -*- C++ -*-===//
///
/// \file
/// The on-disk container of the persistent result cache: one append-only
/// file (`results.log`) of length-prefixed, CRC32-checksummed records
/// inside the persist directory.  The writer batches appends in memory
/// and makes them durable on flush() -- one write + one fsync, so a burst
/// of results costs a single sync ("fsync-on-flush batching").  Position
/// in the file is age: a record always lies after every record appended
/// before it, which is the order eviction and replay follow.
///
/// File layout (all integers little-endian):
///
///   header   "CAIP" | u32 container-version | u64 CacheSchemaVersion |
///            u64 OptionsFormatVersion
///   record*  u32 payload-length | u32 crc32(payload) | payload bytes
///
/// The header pins every version that decides whether a stored payload
/// still means what it meant when written: the container framing itself,
/// the result-cache key schema, and the format of the result-affecting
/// option fingerprint.  open() rejects a file with any mismatch whole
/// (truncates and restamps it; PersistStore counts it in
/// `persist.stale_files`) instead of deserializing records under the
/// wrong schema.
///
/// Torn tails are expected, not exceptional: a crash mid-append leaves a
/// half-written record at the end of the file, and the reader's CRC +
/// length validation turns it into a clean "skip the tail" instead of a
/// wrong result.  See PersistStore for the read side.
///
//===----------------------------------------------------------------------===//

#ifndef CAI_PERSIST_PERSISTLOG_H
#define CAI_PERSIST_PERSISTLOG_H

#include <cstddef>
#include <cstdint>
#include <string>

namespace cai {
namespace persist {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over \p Size
/// bytes at \p Data.  The standard zlib/PNG checksum: cheap, table-driven
/// and more than strong enough to catch torn writes and bit rot -- the
/// log defends against corruption, not adversaries.
uint32_t crc32(const void *Data, size_t Size);

/// First bytes of the log file.
extern const char PersistMagic[4]; // "CAIP"

/// Version of the container framing itself (header layout, record
/// framing, file naming).  Bump only when the on-disk layout changes.
/// Version 2 is the single `results.log`; version 1's sixteen
/// `shard-*.log` files are not read.
constexpr uint32_t PersistContainerVersion = 2;

/// Name of the log file inside the persist directory.
constexpr const char *PersistLogFileName = "results.log";

/// Upper bound on one record's payload.  A length prefix beyond this is
/// treated as corruption (the reader cannot resync past a bogus length,
/// so it drops the rest of the file's tail).
constexpr uint32_t PersistMaxRecordBytes = 64u << 20;

/// Bytes of framing added to each payload (length + CRC words).
constexpr size_t PersistRecordOverhead = 8;

/// Size of the file header in bytes.
constexpr size_t PersistHeaderBytes = 4 + 4 + 8 + 8;

/// Serializes the header for the given schema/options versions.
std::string encodeHeader(uint64_t SchemaVersion, uint64_t OptionsVersion);

/// Validates \p Header (exactly PersistHeaderBytes from the start of the
/// file) against the expected versions.  Returns false on any mismatch
/// -- magic, container, schema or options format.
bool checkHeader(const std::string &Header, uint64_t SchemaVersion,
                 uint64_t OptionsVersion);

/// Frames \p Payload as one record (length + CRC + bytes).
std::string encodeRecordFrame(const std::string &Payload);

/// Writes all \p Size bytes at \p Data to \p Fd, retrying on EINTR and
/// short writes.  False on I/O error (errno set).
bool writeAll(int Fd, const char *Data, size_t Size);

/// Reads exactly \p Size bytes at \p Offset of \p Fd.  False on I/O
/// error or when the file ends first (truncated since it was indexed).
bool preadAll(int Fd, char *Data, size_t Size, uint64_t Offset);

/// The batching writer for one log file.  Appends accumulate in one
/// buffer; flush() writes it and fsyncs the file.  Not thread-safe --
/// PersistStore serializes callers under its mutex.
class PersistLog {
public:
  /// The log lives at \p Dir/results.log; \p Dir is created on open().
  PersistLog(std::string Dir, uint64_t SchemaVersion,
             uint64_t OptionsVersion);
  ~PersistLog();

  PersistLog(const PersistLog &) = delete;
  PersistLog &operator=(const PersistLog &) = delete;

  /// Opens (or creates) the log file for appending.  A brand-new or empty
  /// file gets a header immediately; a file whose header names other
  /// versions is truncated and restamped (see restamped()).  Returns false
  /// and sets \p Error on I/O failure.
  bool open(std::string *Error);

  /// True when the last open() found a stale header and emptied the file.
  bool restamped() const { return Restamped; }

  /// Queues \p Payload and returns the absolute file offset its *frame*
  /// will occupy once flushed (the offset PersistStore indexes for later
  /// pread).
  uint64_t append(const std::string &Payload);

  /// Writes the pending buffer and fsyncs the file.  Returns false (and
  /// sets \p Error) on I/O failure; the file is then in an
  /// undefined-but-recoverable state (the reader's CRC validation absorbs
  /// a torn batch).  A flush with nothing pending is a no-op and does not
  /// count.
  bool flush(std::string *Error);

  /// True when append() has queued bytes not yet flushed.
  bool hasPending() const { return !Pending.empty(); }

  /// Flushes performed (no-op flushes excluded).
  uint64_t flushCount() const { return Flushes; }

  /// On-disk + pending bytes (header included).
  uint64_t size() const { return Size; }

  /// Closes the file (open() can be called again, e.g. after a
  /// compaction replaced it).
  void close();

  /// The file descriptor (-1 when closed); PersistStore preads record
  /// frames through it.
  int fd() const { return Fd; }

  /// Full path of the log file.
  const std::string &path() const { return Path; }

private:
  std::string Dir;
  std::string Path;
  uint64_t SchemaVersion;
  uint64_t OptionsVersion;
  int Fd = -1;
  uint64_t Size = 0;   ///< On-disk size incl. pending bytes.
  std::string Pending; ///< Unflushed frames.
  bool Restamped = false;
  uint64_t Flushes = 0;
};

} // namespace persist
} // namespace cai

#endif // CAI_PERSIST_PERSISTLOG_H
