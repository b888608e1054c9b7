//===- tests/persist_test.cpp - Persistent cache tier unit tests -----------===//
//
// The disk tier end to end at the library level: the CRC32 checksum, the
// log-file header versioning (stale schema/options files rejected whole),
// record payload round-trips, the PersistStore's warm-restart index and
// LRU replay, the three corruption paths (torn tail, bit-flipped payload,
// wrong checksum) each degrading to a counted miss rather than a crash or
// a wrong result, read-time re-verification, byte-budget GC via log
// compaction, and append order (= file order) deciding what compaction
// evicts and what replay keeps, across reopens and repeated compactions.
//
//===----------------------------------------------------------------------===//

#include "persist/PersistLog.h"
#include "persist/PersistStore.h"
#include "service/Fingerprint.h"
#include "service/ResultCache.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

using namespace cai;
using namespace cai::persist;
using namespace cai::service;

namespace {

namespace fs = std::filesystem;

/// A unique scratch directory per test, removed on destruction.
struct TempDir {
  fs::path Path;
  explicit TempDir(const std::string &Tag) {
    Path = fs::temp_directory_path() /
           ("cai_persist_test_" + Tag + "_" +
            std::to_string(::getpid()));
    fs::remove_all(Path);
  }
  ~TempDir() {
    std::error_code EC;
    fs::remove_all(Path, EC);
  }
  std::string str() const { return Path.string(); }
};

/// A fingerprint with leading hex digit \p Lead.  The order tests give
/// older records a *higher* leading digit, so an order that follows the
/// fingerprint instead of the file cannot pass them.
std::string fp(unsigned Lead, char Fill = 'a') {
  std::string FP(32, Fill);
  FP[0] = "0123456789abcdef"[Lead];
  return FP;
}

JobResult makeResult(const std::string &FP, uint64_t Id = 0) {
  JobResult R;
  R.Id = Id;
  R.Name = "job-" + std::to_string(Id);
  R.Status = JobStatus::AssertionsFailed;
  R.Fingerprint = FP;
  R.Domain = "affine >< uf";
  R.Assertions = {{"assert@10", true}, {"assert@20", false}};
  R.NumVerified = 1;
  R.Stats.Joins = 3;
  R.Stats.Transfers = 7;
  R.Stats.MaxNodeUpdates = 2;
  return R;
}

/// The one log file of a persist directory.
fs::path logPath(const TempDir &D) { return D.Path / PersistLogFileName; }

/// Bytes one makeResult() record occupies in the log (frame included);
/// equal for every fingerprint made by fp().
uint64_t recordBytes() {
  return encodeRecordFrame(encodeResultPayload(makeResult(fp(0)))).size();
}

/// Opens \p Store, reporting the error on failure.
bool opened(PersistStore &Store) {
  std::string Error;
  bool Ok = Store.open(&Error);
  EXPECT_TRUE(Ok) << Error;
  return Ok;
}

/// Writes one record for \p FP to a fresh, then closed, log in \p D.
void writeOne(const TempDir &D, const std::string &FP) {
  PersistStore Store(D.str(), 0);
  ASSERT_TRUE(opened(Store));
  Store.append(makeResult(FP));
  ASSERT_TRUE(Store.flush());
}

/// Offset of the first record's payload.
constexpr uint64_t FirstPayload = PersistHeaderBytes + PersistRecordOverhead;

/// Flips bits of the log byte at \p Offset in place.
void flipLogByte(const TempDir &D, uint64_t Offset) {
  std::fstream F(logPath(D), std::ios::in | std::ios::out | std::ios::binary);
  F.seekg(static_cast<std::streamoff>(Offset));
  char C = static_cast<char>(F.get());
  F.seekp(static_cast<std::streamoff>(Offset));
  F.put(static_cast<char>(C ^ 0x40));
}

// --- Container primitives ------------------------------------------------

TEST(PersistLog, Crc32KnownVector) {
  // The standard CRC-32 check value ("123456789" -> 0xCBF43926).
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
}

TEST(PersistLog, HeaderVersionMismatchRejected) {
  std::string H = encodeHeader(3, 1);
  ASSERT_EQ(H.size(), PersistHeaderBytes);
  EXPECT_TRUE(checkHeader(H, 3, 1));
  EXPECT_FALSE(checkHeader(H, 2, 1)); // Stale cache schema.
  EXPECT_FALSE(checkHeader(H, 3, 2)); // Stale options format.
  std::string BadMagic = H;
  BadMagic[0] = 'X';
  EXPECT_FALSE(checkHeader(BadMagic, 3, 1));
  EXPECT_FALSE(checkHeader(H.substr(0, 8), 3, 1)); // Short header.
}

TEST(PersistLog, RecordFrameCarriesLengthAndChecksum) {
  std::string Frame = encodeRecordFrame("hello");
  ASSERT_EQ(Frame.size(), PersistRecordOverhead + 5);
  EXPECT_EQ(Frame.substr(PersistRecordOverhead), "hello");
}

// --- Payload round-trip --------------------------------------------------

TEST(PersistPayload, RoundTripsEveryField) {
  JobResult R = makeResult(fp(4), 42);
  R.Linted = true;
  R.Findings.push_back(
      {"dead-branch", "warning", 12, 3, 5, "branch never taken",
       "poly >< uf"});
  JobResult Out;
  ASSERT_TRUE(decodeResultPayload(encodeResultPayload(R), &Out));
  EXPECT_EQ(Out.Fingerprint, R.Fingerprint);
  EXPECT_EQ(Out.Status, R.Status);
  EXPECT_EQ(Out.Domain, R.Domain);
  EXPECT_EQ(Out.NumVerified, R.NumVerified);
  ASSERT_EQ(Out.Assertions.size(), 2u);
  EXPECT_EQ(Out.Assertions[0].Label, "assert@10");
  EXPECT_TRUE(Out.Assertions[0].Verified);
  EXPECT_FALSE(Out.Assertions[1].Verified);
  EXPECT_TRUE(Out.Linted);
  ASSERT_EQ(Out.Findings.size(), 1u);
  EXPECT_EQ(Out.Findings[0].Rule, "dead-branch");
  EXPECT_EQ(Out.Findings[0].Line, 12u);
  EXPECT_EQ(Out.Stats.Joins, 3u);
  EXPECT_EQ(Out.Stats.Transfers, 7u);
  EXPECT_EQ(Out.Stats.MaxNodeUpdates, 2u);
  // Serving a disk record is never a memory hit and carries no timing.
  EXPECT_FALSE(Out.CacheHit);
  EXPECT_EQ(Out.DurationMs, 0.0);
}

TEST(PersistPayload, DecodeRejectsMalformedInput) {
  JobResult Out;
  EXPECT_FALSE(decodeResultPayload("not json", &Out));
  EXPECT_FALSE(decodeResultPayload("{}", &Out)); // No fingerprint.
  JobResult R = makeResult(fp(1));
  std::string Good = encodeResultPayload(R);
  std::string BadStatus = Good;
  size_t At = BadStatus.find("assertions-failed");
  ASSERT_NE(At, std::string::npos);
  BadStatus.replace(At, 17, "no-such-status-xx");
  EXPECT_FALSE(decodeResultPayload(BadStatus, &Out));
}

// --- Store round-trip and warm restart -----------------------------------

TEST(PersistStore, RoundTripAcrossReopen) {
  TempDir D("roundtrip");
  std::string FP = fp(7);
  {
    PersistStore Store(D.str(), /*ByteBudget=*/0);
    ASSERT_TRUE(opened(Store));
    Store.append(makeResult(FP, 1));
    EXPECT_TRUE(Store.flush());
    // Same-process lookup hits too (the scheduler's miss path).
    auto Hit = Store.lookup(FP);
    ASSERT_NE(Hit, nullptr);
    EXPECT_EQ(Hit->Fingerprint, FP);
  }
  PersistStore Store(D.str(), 0);
  ASSERT_TRUE(opened(Store));
  EXPECT_EQ(Store.stats().LiveRecords, 1u);
  auto Hit = Store.lookup(FP);
  ASSERT_NE(Hit, nullptr);
  EXPECT_EQ(Hit->Status, JobStatus::AssertionsFailed);
  EXPECT_EQ(Hit->NumVerified, 1u);
  EXPECT_EQ(Store.lookup(fp(7, 'b')), nullptr); // Different job.
  EXPECT_EQ(Store.stats().Hits, 1u);
  EXPECT_EQ(Store.stats().Misses, 1u);
}

TEST(PersistStore, NewestRecordPerFingerprintWins) {
  TempDir D("newest");
  std::string FP = fp(2);
  PersistStore Store(D.str(), 0);
  ASSERT_TRUE(opened(Store));
  JobResult Old = makeResult(FP, 1);
  Old.Status = JobStatus::AssertionsFailed;
  JobResult New = makeResult(FP, 2);
  New.Status = JobStatus::Verified;
  Store.append(Old);
  Store.append(New);
  ASSERT_TRUE(Store.flush());

  PersistStore Reopened(D.str(), 0);
  ASSERT_TRUE(opened(Reopened));
  EXPECT_EQ(Reopened.stats().LiveRecords, 1u);
  auto Hit = Reopened.lookup(FP);
  ASSERT_NE(Hit, nullptr);
  EXPECT_EQ(Hit->Status, JobStatus::Verified);
}

TEST(PersistStore, UncacheableAndUnfingerprintedResultsNotAppended) {
  TempDir D("uncacheable");
  PersistStore Store(D.str(), 0);
  ASSERT_TRUE(opened(Store));
  JobResult Timeout = makeResult(fp(1));
  Timeout.Status = JobStatus::Timeout;
  Store.append(Timeout);
  Store.append(makeResult(""));
  EXPECT_EQ(Store.stats().Appends, 0u);
  EXPECT_EQ(Store.stats().LiveRecords, 0u);
}

TEST(PersistStore, ReplayIntoSeedsTheMemoryTier) {
  TempDir D("replay");
  {
    PersistStore Store(D.str(), 0);
    ASSERT_TRUE(opened(Store));
    for (unsigned I = 0; I < 4; ++I)
      Store.append(makeResult(fp(I), I));
    ASSERT_TRUE(Store.flush());
  }
  PersistStore Store(D.str(), 0);
  ASSERT_TRUE(opened(Store));
  ResultCache Cache(1 << 20);
  EXPECT_EQ(Store.replayInto(Cache), 4u);
  EXPECT_EQ(Store.stats().Replayed, 4u);
  EXPECT_EQ(Cache.stats().Entries, 4u);
  auto Hit = Cache.lookup(fp(2));
  ASSERT_NE(Hit, nullptr);
  EXPECT_EQ(Hit->Fingerprint, fp(2));
}

// --- Version guards ------------------------------------------------------

TEST(PersistStore, StaleSchemaFileRejectedWholesale) {
  TempDir D("stale");
  std::string FP = fp(5);
  {
    // A log written under the previous cache schema: every record in it
    // keyed by fingerprints the current code would compute differently.
    PersistLog OldLog(D.str(), CacheSchemaVersion - 1, OptionsFormatVersion);
    std::string Error;
    ASSERT_TRUE(OldLog.open(&Error)) << Error;
    OldLog.append(encodeResultPayload(makeResult(FP)));
    ASSERT_TRUE(OldLog.flush(&Error)) << Error;
  }
  PersistStore Store(D.str(), 0);
  ASSERT_TRUE(opened(Store));
  EXPECT_EQ(Store.stats().StaleFiles, 1u);
  EXPECT_EQ(Store.stats().LiveRecords, 0u);
  EXPECT_EQ(Store.lookup(FP), nullptr);
  // The stale file was truncated and restamped: new appends round-trip
  // under the current schema.
  Store.append(makeResult(FP));
  ASSERT_TRUE(Store.flush());
  PersistStore Reopened(D.str(), 0);
  ASSERT_TRUE(opened(Reopened));
  EXPECT_EQ(Reopened.stats().StaleFiles, 0u);
  ASSERT_NE(Reopened.lookup(FP), nullptr);
}

TEST(PersistStore, PreviousContainerVersionIsStale) {
  // A log stamped by container version 1 is rejected whole like any other
  // version mismatch; that layout's shard-*.log files are never read.
  TempDir D("oldcontainer");
  std::string FP = fp(4);
  fs::create_directories(D.Path);
  std::string Old = encodeHeader(CacheSchemaVersion, OptionsFormatVersion);
  Old[4] = 1; // Container version word, little-endian.
  Old += encodeRecordFrame(encodeResultPayload(makeResult(FP)));
  for (const char *Name : {PersistLogFileName, "shard-4.log"})
    std::ofstream(D.Path / Name, std::ios::binary) << Old;
  PersistStore Store(D.str(), 0);
  ASSERT_TRUE(opened(Store));
  EXPECT_EQ(Store.stats().StaleFiles, 1u);
  EXPECT_EQ(Store.stats().LiveRecords, 0u);
  EXPECT_EQ(Store.lookup(FP), nullptr);
  EXPECT_EQ(fs::file_size(logPath(D)), PersistHeaderBytes); // Restamped.
}

// --- Corruption paths ----------------------------------------------------

TEST(PersistStore, TruncatedTailSkippedEarlierRecordsSurvive) {
  TempDir D("torn");
  std::string FP = fp(3);
  writeOne(D, FP);
  // Simulate a crash mid-append: half a frame at the end of the log.
  std::string Frame = encodeRecordFrame("payload never finished");
  std::ofstream(logPath(D), std::ios::app | std::ios::binary)
      << Frame.substr(0, Frame.size() / 2);
  PersistStore Store(D.str(), 0);
  ASSERT_TRUE(opened(Store));
  EXPECT_GE(Store.stats().Corrupt, 1u);
  auto Hit = Store.lookup(FP); // The complete record still serves.
  ASSERT_NE(Hit, nullptr);
  EXPECT_EQ(Hit->Fingerprint, FP);
}

TEST(PersistStore, BitFlippedPayloadIsACountedMiss) {
  TempDir D("bitflip");
  std::string FP = fp(6);
  writeOne(D, FP);
  flipLogByte(D, FirstPayload + 10);
  PersistStore Store(D.str(), 0);
  ASSERT_TRUE(opened(Store));
  EXPECT_GE(Store.stats().Corrupt, 1u);
  EXPECT_EQ(Store.stats().LiveRecords, 0u);
  EXPECT_EQ(Store.lookup(FP), nullptr);
}

TEST(PersistStore, WrongChecksumIsACountedMiss) {
  TempDir D("badcrc");
  std::string FP = fp(9);
  writeOne(D, FP);
  flipLogByte(D, PersistHeaderBytes + 4); // The CRC word follows the length.
  PersistStore Store(D.str(), 0);
  ASSERT_TRUE(opened(Store));
  EXPECT_GE(Store.stats().Corrupt, 1u);
  EXPECT_EQ(Store.lookup(FP), nullptr);
}

TEST(PersistStore, LookupReverifiesAtReadTime) {
  // The file can rot *after* open() indexed it; lookup() must catch that
  // too, drop the entry and serve a miss instead of a wrong result.
  TempDir D("readtime");
  std::string FP = fp(11);
  PersistStore Store(D.str(), 0);
  ASSERT_TRUE(opened(Store));
  Store.append(makeResult(FP));
  ASSERT_TRUE(Store.flush());
  flipLogByte(D, FirstPayload + 5);
  EXPECT_EQ(Store.lookup(FP), nullptr);
  EXPECT_GE(Store.stats().Corrupt, 1u);
  // The index entry was dropped: the retry is a cheap miss, not another
  // read + CRC failure.
  uint64_t CorruptBefore = Store.stats().Corrupt;
  EXPECT_EQ(Store.lookup(FP), nullptr);
  EXPECT_EQ(Store.stats().Corrupt, CorruptBefore);
}

// --- Byte-budget GC ------------------------------------------------------

TEST(PersistStore, CompactionEnforcesTheByteBudget) {
  TempDir D("compact");
  // ~700 bytes per record; a 4 KiB budget forces eviction well before 32
  // distinct fingerprints are in.
  uint64_t Budget = 4096 + PersistHeaderBytes;
  PersistStore Store(D.str(), Budget, /*FlushEvery=*/1);
  ASSERT_TRUE(opened(Store));
  for (unsigned I = 0; I < 32; ++I)
    Store.append(makeResult(fp(I % 16, static_cast<char>('a' + I / 16)), I));
  ASSERT_TRUE(Store.flush());
  PersistStats St = Store.stats();
  EXPECT_GE(St.Compactions, 1u);
  EXPECT_GE(St.Evictions, 1u);
  EXPECT_LE(St.LogBytes, Budget);
  EXPECT_LT(St.LiveRecords, 32u);
  EXPECT_GT(St.LiveRecords, 0u);
  // Eviction is oldest-first: the newest record must have survived.
  EXPECT_NE(Store.lookup(fp(15, 'b')), nullptr);

  // Compaction rewrote the file consistently: a reopen sees the same live
  // set and every survivor still decodes.
  PersistStore Reopened(D.str(), Budget);
  ASSERT_TRUE(opened(Reopened));
  EXPECT_EQ(Reopened.stats().LiveRecords, St.LiveRecords);
  EXPECT_EQ(Reopened.stats().Corrupt, 0u);
  EXPECT_NE(Reopened.lookup(fp(15, 'b')), nullptr);
}

// --- One file, append order ----------------------------------------------

TEST(PersistStore, OneLogFileHoldsEveryRecord) {
  TempDir D("onefile");
  PersistStore Store(D.str(), 0);
  ASSERT_TRUE(opened(Store));
  for (unsigned I = 0; I < 16; ++I)
    Store.append(makeResult(fp(I), I));
  ASSERT_TRUE(Store.flush());
  EXPECT_EQ(Store.stats().Flushes, 1u); // One fsync for the whole batch.
  std::vector<std::string> Names;
  for (const fs::directory_entry &E : fs::directory_iterator(D.Path))
    Names.push_back(E.path().filename().string());
  EXPECT_EQ(Names, std::vector<std::string>{PersistLogFileName});
  EXPECT_EQ(fs::file_size(logPath(D)), PersistHeaderBytes + 16 * recordBytes());
}

/// Appends four old records (leading digit f) and then four newer ones
/// (leading digit 0) to a fresh, unbounded store in \p D.
void appendOldThenNew(const TempDir &D) {
  PersistStore Store(D.str(), 0);
  ASSERT_TRUE(opened(Store));
  for (unsigned I = 0; I < 8; ++I)
    Store.append(makeResult(fp(I < 4 ? 15 : 0, char('a' + I % 4)), I));
  ASSERT_TRUE(Store.flush());
}

TEST(PersistStore, CompactionAfterReopenEvictsOldest) {
  TempDir D("reopen_evict");
  appendOldThenNew(D);
  // Room for five records: one more append forces a compaction that must
  // drop exactly the four old ones.
  PersistStore Store(D.str(), PersistHeaderBytes + 5 * recordBytes());
  ASSERT_TRUE(opened(Store));
  ASSERT_EQ(Store.stats().LiveRecords, 8u);
  Store.append(makeResult(fp(7), 8));
  EXPECT_EQ(Store.stats().Compactions, 1u);
  EXPECT_EQ(Store.stats().Evictions, 4u);
  for (unsigned I = 0; I < 4; ++I) {
    EXPECT_EQ(Store.lookup(fp(15, char('a' + I))), nullptr) << "old " << I;
    EXPECT_NE(Store.lookup(fp(0, char('a' + I))), nullptr) << "new " << I;
  }
  EXPECT_NE(Store.lookup(fp(7)), nullptr);
}

TEST(PersistStore, ReplayAfterReopenKeepsNewest) {
  TempDir D("reopen_replay");
  appendOldThenNew(D);
  PersistStore Store(D.str(), 0);
  ASSERT_TRUE(opened(Store));
  // A memory tier with room for exactly four of the eight records.
  JobResult Decoded;
  ASSERT_TRUE(
      decodeResultPayload(encodeResultPayload(makeResult(fp(0))), &Decoded));
  ResultCache Cache(4 * ResultCache::costOf(Decoded.Fingerprint, Decoded));
  EXPECT_EQ(Store.replayInto(Cache), 8u);
  EXPECT_EQ(Cache.stats().Entries, 4u);
  for (unsigned I = 0; I < 4; ++I) {
    EXPECT_EQ(Cache.lookup(fp(15, char('a' + I))), nullptr) << "old " << I;
    EXPECT_NE(Cache.lookup(fp(0, char('a' + I))), nullptr) << "new " << I;
  }
}

TEST(PersistStore, RepeatedCompactionsEvictInAppendOrder) {
  TempDir D("two_compactions");
  PersistStore Store(D.str(), PersistHeaderBytes + 4 * recordBytes(),
                     /*FlushEvery=*/1);
  ASSERT_TRUE(opened(Store));
  // Appended newest-last with falling leading digits: f, e, d, c, 0, 1.
  const unsigned Leads[] = {15, 14, 13, 12, 0, 1};
  for (unsigned I = 0; I < 6; ++I)
    Store.append(makeResult(fp(Leads[I]), I));
  EXPECT_EQ(Store.stats().Compactions, 2u);
  EXPECT_EQ(Store.stats().Evictions, 2u);
  EXPECT_EQ(Store.lookup(fp(15)), nullptr); // First compaction.
  EXPECT_EQ(Store.lookup(fp(14)), nullptr); // Second compaction.
  for (unsigned Lead : {13u, 12u, 0u, 1u})
    EXPECT_NE(Store.lookup(fp(Lead)), nullptr) << "lead " << Lead;
}

} // namespace
