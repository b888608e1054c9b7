//===- persist/PersistLog.cpp - Append-only checksummed record log --------===//

#include "persist/PersistLog.h"

#include <cerrno>
#include <cstring>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

namespace cai {
namespace persist {

const char PersistMagic[4] = {'C', 'A', 'I', 'P'};

namespace {

/// Table-driven CRC-32 (IEEE).  The table is built once, lazily; the
/// static local is thread-safe under C++11 initialization rules.
const uint32_t *crcTable() {
  static const auto Table = [] {
    std::vector<uint32_t> T(256);
    for (uint32_t I = 0; I < 256; ++I) {
      uint32_t C = I;
      for (int K = 0; K < 8; ++K)
        C = (C & 1) ? 0xEDB88320u ^ (C >> 1) : C >> 1;
      T[I] = C;
    }
    return T;
  }();
  return Table.data();
}

void putU32(std::string &Out, uint32_t V) {
  for (int I = 0; I < 4; ++I)
    Out.push_back(char((V >> (8 * I)) & 0xFF));
}

void putU64(std::string &Out, uint64_t V) {
  for (int I = 0; I < 8; ++I)
    Out.push_back(char((V >> (8 * I)) & 0xFF));
}

uint32_t getU32(const char *P) {
  uint32_t V = 0;
  for (int I = 3; I >= 0; --I)
    V = (V << 8) | uint8_t(P[I]);
  return V;
}

uint64_t getU64(const char *P) {
  uint64_t V = 0;
  for (int I = 7; I >= 0; --I)
    V = (V << 8) | uint8_t(P[I]);
  return V;
}

} // namespace

uint32_t crc32(const void *Data, size_t Size) {
  const uint32_t *T = crcTable();
  const auto *P = static_cast<const uint8_t *>(Data);
  uint32_t C = 0xFFFFFFFFu;
  for (size_t I = 0; I < Size; ++I)
    C = T[(C ^ P[I]) & 0xFF] ^ (C >> 8);
  return C ^ 0xFFFFFFFFu;
}

std::string encodeHeader(uint64_t SchemaVersion, uint64_t OptionsVersion) {
  std::string H;
  H.reserve(PersistHeaderBytes);
  H.append(PersistMagic, sizeof(PersistMagic));
  putU32(H, PersistContainerVersion);
  putU64(H, SchemaVersion);
  putU64(H, OptionsVersion);
  return H;
}

bool checkHeader(const std::string &Header, uint64_t SchemaVersion,
                 uint64_t OptionsVersion) {
  if (Header.size() != PersistHeaderBytes)
    return false;
  if (std::memcmp(Header.data(), PersistMagic, sizeof(PersistMagic)) != 0)
    return false;
  if (getU32(Header.data() + 4) != PersistContainerVersion)
    return false;
  if (getU64(Header.data() + 8) != SchemaVersion)
    return false;
  if (getU64(Header.data() + 16) != OptionsVersion)
    return false;
  return true;
}

std::string encodeRecordFrame(const std::string &Payload) {
  std::string Frame;
  Frame.reserve(PersistRecordOverhead + Payload.size());
  putU32(Frame, uint32_t(Payload.size()));
  putU32(Frame, crc32(Payload.data(), Payload.size()));
  Frame += Payload;
  return Frame;
}

bool writeAll(int Fd, const char *Data, size_t Size) {
  while (Size) {
    ssize_t N = ::write(Fd, Data, Size);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Data += N;
    Size -= size_t(N);
  }
  return true;
}

bool preadAll(int Fd, char *Data, size_t Size, uint64_t Offset) {
  while (Size) {
    ssize_t N = ::pread(Fd, Data, Size, off_t(Offset));
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    if (N == 0)
      return false; // Short file: truncated since indexing.
    Data += N;
    Size -= size_t(N);
    Offset += uint64_t(N);
  }
  return true;
}

PersistLog::PersistLog(std::string Dir, uint64_t SchemaVersion,
                       uint64_t OptionsVersion)
    : Dir(Dir), Path(Dir + "/" + PersistLogFileName),
      SchemaVersion(SchemaVersion), OptionsVersion(OptionsVersion) {}

PersistLog::~PersistLog() { close(); }

bool PersistLog::open(std::string *Error) {
  close();
  Pending.clear();
  Restamped = false;
  auto Fail = [&](const std::string &What, const std::string &Of) {
    if (Error)
      *Error = What + " " + Of + ": " + std::strerror(errno);
    close();
    return false;
  };
  if (::mkdir(Dir.c_str(), 0755) != 0 && errno != EEXIST)
    return Fail("cannot create", Dir);
  Fd = ::open(Path.c_str(), O_RDWR | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (Fd < 0)
    return Fail("cannot open", Path);
  struct stat St;
  if (::fstat(Fd, &St) != 0)
    return Fail("cannot stat", Path);
  Size = uint64_t(St.st_size);
  if (Size != 0) {
    // Reject a stale-format file *before* appending to it: current-schema
    // records under a header that declares another schema would poison
    // later loads.  A file too short for a header fails the check too.
    std::string Header(PersistHeaderBytes, '\0');
    ssize_t N = ::pread(Fd, &Header[0], Header.size(), 0);
    if (N < 0)
      return Fail("cannot read", Path);
    Header.resize(size_t(N));
    if (!checkHeader(Header, SchemaVersion, OptionsVersion)) {
      if (::ftruncate(Fd, 0) != 0)
        return Fail("cannot truncate", Path);
      Size = 0;
      Restamped = true;
    }
  }
  if (Size == 0) {
    std::string H = encodeHeader(SchemaVersion, OptionsVersion);
    if (!writeAll(Fd, H.data(), H.size()))
      return Fail("cannot write header to", Path);
    Size = H.size();
  }
  return true;
}

uint64_t PersistLog::append(const std::string &Payload) {
  uint64_t Offset = Size;
  Pending += encodeRecordFrame(Payload);
  Size = Offset + PersistRecordOverhead + Payload.size();
  return Offset;
}

bool PersistLog::flush(std::string *Error) {
  if (Pending.empty())
    return true;
  if (Fd < 0) {
    if (Error)
      *Error = "persist log not open";
    return false;
  }
  auto Fail = [&](const char *What) {
    if (Error)
      *Error = What + Path + ": " + std::strerror(errno);
    return false;
  };
  if (!writeAll(Fd, Pending.data(), Pending.size()))
    return Fail("write failed on ");
  if (::fsync(Fd) != 0)
    return Fail("fsync failed on ");
  Pending.clear();
  ++Flushes;
  return true;
}

void PersistLog::close() {
  if (Fd >= 0)
    ::close(Fd);
  Fd = -1;
}

} // namespace persist
} // namespace cai
