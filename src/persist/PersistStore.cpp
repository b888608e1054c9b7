//===- persist/PersistStore.cpp - Disk tier under the ResultCache ---------===//

#include "persist/PersistStore.h"

#include "service/Fingerprint.h"
#include "service/Json.h"
#include "service/ResultCache.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <type_traits>

#include <fcntl.h>
#include <unistd.h>

namespace cai {
namespace persist {

using service::Json;
using service::JobResult;

namespace {

int64_t intField(const Json &Obj, const char *Key) {
  const Json *V = Obj.get(Key);
  return V && V->isNumber() ? V->asInt() : 0;
}

std::string strField(const Json &Obj, const char *Key) {
  const Json *V = Obj.get(Key);
  return V && V->isString() ? V->asString() : std::string();
}

bool boolField(const Json &Obj, const char *Key) {
  const Json *V = Obj.get(Key);
  return V && V->isBool() && V->asBool();
}

/// Calls \p Fn(key, field) for every AnalyzerStats field.  All of them
/// ride along in a record: a disk hit must replay the original run's
/// stats byte-for-byte on the wire, same as a memory hit.
template <class Stats, class FnT> void forEachStat(Stats &S, FnT &&Fn) {
  Fn("joins", S.Joins);
  Fn("widenings", S.Widenings);
  Fn("transfers", S.Transfers);
  Fn("entailment_checks", S.EntailmentChecks);
  Fn("edge_evals", S.EdgeEvals);
  Fn("transfer_cache_hits", S.TransferCacheHits);
  Fn("cache_hits", S.CacheHits);
  Fn("cache_misses", S.CacheMisses);
  Fn("saturation_rounds", S.SaturationRounds);
  Fn("wto_components", S.WtoComponents);
  Fn("max_node_updates", S.MaxNodeUpdates);
  Fn("total_node_updates", S.TotalNodeUpdates);
  Fn("components_reused", S.ComponentsReused);
  Fn("components_recomputed", S.ComponentsRecomputed);
}

} // namespace

std::string encodeResultPayload(const JobResult &R) {
  Json P = Json::object();
  P.set("fp", Json::str(R.Fingerprint));
  P.set("status", Json::str(service::statusName(R.Status)));
  P.set("domain", Json::str(R.Domain));
  if (!R.Error.empty())
    P.set("error", Json::str(R.Error));
  P.set("verified", Json::integer(int64_t(R.NumVerified)));
  Json As = Json::array();
  for (const AssertionVerdict &A : R.Assertions) {
    Json V = Json::object();
    V.set("label", Json::str(A.Label));
    V.set("ok", Json::boolean(A.Verified));
    As.push(std::move(V));
  }
  P.set("assertions", std::move(As));
  P.set("linted", Json::boolean(R.Linted));
  if (R.Linted) {
    Json Fs = Json::array();
    for (const lint::LintFinding &F : R.Findings) {
      Json V = Json::object();
      V.set("rule", Json::str(F.Rule));
      V.set("level", Json::str(F.Level));
      V.set("line", Json::integer(int64_t(F.Line)));
      V.set("col", Json::integer(int64_t(F.Col)));
      V.set("node", Json::integer(int64_t(F.Node)));
      V.set("message", Json::str(F.Message));
      V.set("domain", Json::str(F.Domain));
      Fs.push(std::move(V));
    }
    P.set("findings", std::move(Fs));
  }
  Json St = Json::object();
  forEachStat(R.Stats, [&](const char *Key, auto V) {
    St.set(Key, Json::integer(int64_t(V)));
  });
  P.set("stats", std::move(St));
  return P.dump();
}

bool decodeResultPayload(const std::string &Payload, JobResult *R) {
  std::optional<Json> Parsed = Json::parse(Payload);
  if (!Parsed || !Parsed->isObject())
    return false;
  const Json &P = *Parsed;
  JobResult Out;
  Out.Fingerprint = strField(P, "fp");
  if (Out.Fingerprint.empty())
    return false;
  if (!service::statusFromName(strField(P, "status"), &Out.Status))
    return false;
  Out.Domain = strField(P, "domain");
  Out.Error = strField(P, "error");
  Out.NumVerified = unsigned(intField(P, "verified"));
  if (const Json *As = P.get("assertions")) {
    if (!As->isArray())
      return false;
    for (const Json &V : As->items()) {
      AssertionVerdict A;
      A.Label = strField(V, "label");
      A.Verified = boolField(V, "ok");
      Out.Assertions.push_back(std::move(A));
    }
  }
  Out.Linted = boolField(P, "linted");
  if (const Json *Fs = P.get("findings")) {
    if (!Fs->isArray())
      return false;
    for (const Json &V : Fs->items()) {
      lint::LintFinding F;
      F.Rule = strField(V, "rule");
      F.Level = strField(V, "level");
      F.Line = uint32_t(intField(V, "line"));
      F.Col = uint32_t(intField(V, "col"));
      F.Node = NodeId(intField(V, "node"));
      F.Message = strField(V, "message");
      F.Domain = strField(V, "domain");
      Out.Findings.push_back(std::move(F));
    }
  }
  if (const Json *St = P.get("stats")) {
    if (!St->isObject())
      return false;
    forEachStat(Out.Stats, [&](const char *Key, auto &V) {
      V = std::remove_reference_t<decltype(V)>(intField(*St, Key));
    });
  }
  Out.CacheHit = false;
  Out.DurationMs = 0;
  *R = std::move(Out);
  return true;
}

PersistStore::PersistStore(std::string Dir, uint64_t ByteBudget,
                           unsigned FlushEvery)
    : Budget(ByteBudget), FlushEvery(FlushEvery == 0 ? 1 : FlushEvery),
      Log(std::move(Dir), service::CacheSchemaVersion,
          service::OptionsFormatVersion) {
  S.ByteBudget = ByteBudget;
}

PersistStore::~PersistStore() {
  std::string Err;
  std::lock_guard<std::mutex> L(Mu);
  if (Opened)
    flushLocked(&Err);
}

bool PersistStore::open(std::string *Error) {
  std::lock_guard<std::mutex> L(Mu);
  Index.clear();
  if (!Log.open(Error))
    return false;
  if (Log.restamped())
    ++S.StaleFiles;
  if (!loadLocked(Error))
    return false;
  Opened = true;
  S.LiveRecords = Index.size();
  S.LogBytes = Log.size();
  return true;
}

bool PersistStore::loadLocked(std::string *Error) {
  uint64_t Size = Log.size();
  if (Size <= PersistHeaderBytes)
    return true;
  std::string Data(size_t(Size - PersistHeaderBytes), '\0');
  if (!preadAll(Log.fd(), &Data[0], Data.size(), PersistHeaderBytes)) {
    if (Error)
      *Error = "cannot read " + Log.path() + ": " + std::strerror(errno);
    return false;
  }

  size_t Pos = 0;
  while (Pos < Data.size()) {
    if (Data.size() - Pos < PersistRecordOverhead) {
      ++S.Corrupt; // Torn tail: frame words themselves are incomplete.
      break;
    }
    uint32_t Len = 0, Crc = 0;
    std::memcpy(&Len, Data.data() + Pos, 4);
    std::memcpy(&Crc, Data.data() + Pos + 4, 4);
    if (Len > PersistMaxRecordBytes ||
        Data.size() - Pos - PersistRecordOverhead < Len) {
      // Implausible length or fewer bytes than promised: cannot resync
      // past this point, drop the rest of the file's tail.
      ++S.Corrupt;
      break;
    }
    const char *Payload = Data.data() + Pos + PersistRecordOverhead;
    uint64_t FrameOffset = PersistHeaderBytes + Pos;
    Pos += PersistRecordOverhead + Len;
    if (crc32(Payload, Len) != Crc) {
      ++S.Corrupt; // Checksum mismatch with a plausible frame: skip one.
      continue;
    }
    JobResult R;
    if (!decodeResultPayload(std::string(Payload, Len), &R)) {
      ++S.Corrupt;
      continue;
    }
    // Newest record per fingerprint wins (append-only updates).
    Index[R.Fingerprint] = {FrameOffset, Len};
  }
  return true;
}

bool PersistStore::readFrameLocked(const IndexEntry &E, std::string *Frame) {
  // The indexed frame may still sit in the write buffer; make it
  // readable first.
  if (Log.hasPending()) {
    std::string Err;
    if (!flushLocked(&Err))
      return false;
  }
  Frame->assign(PersistRecordOverhead + E.PayloadLen, '\0');
  if (!preadAll(Log.fd(), &(*Frame)[0], Frame->size(), E.Offset))
    return false;
  uint32_t Len = 0, Crc = 0;
  std::memcpy(&Len, Frame->data(), 4);
  std::memcpy(&Crc, Frame->data() + 4, 4);
  return Len == E.PayloadLen &&
         crc32(Frame->data() + PersistRecordOverhead, Len) == Crc;
}

std::shared_ptr<const JobResult> PersistStore::readEntryLocked(
    const std::string &Fingerprint, const IndexEntry &E) {
  std::string Frame;
  auto R = std::make_shared<JobResult>();
  if (!readFrameLocked(E, &Frame) ||
      !decodeResultPayload(Frame.substr(PersistRecordOverhead), R.get()) ||
      R->Fingerprint != Fingerprint) {
    ++S.Corrupt;
    Index.erase(Fingerprint);
    return nullptr;
  }
  return R;
}

std::vector<std::string> PersistStore::appendOrderLocked() const {
  // One append-only file: a record's offset is its age.
  std::vector<std::pair<uint64_t, const std::string *>> ByOffset;
  ByOffset.reserve(Index.size());
  for (const auto &[FP, E] : Index)
    ByOffset.emplace_back(E.Offset, &FP);
  std::sort(ByOffset.begin(), ByOffset.end());
  std::vector<std::string> Order;
  Order.reserve(ByOffset.size());
  for (const auto &[Offset, FP] : ByOffset)
    Order.push_back(*FP);
  return Order;
}

std::shared_ptr<const JobResult> PersistStore::lookup(
    const std::string &Fingerprint) {
  std::lock_guard<std::mutex> L(Mu);
  auto It = Opened ? Index.find(Fingerprint) : Index.end();
  std::shared_ptr<const JobResult> R;
  if (It != Index.end())
    R = readEntryLocked(Fingerprint, It->second);
  ++(R ? S.Hits : S.Misses);
  S.LiveRecords = Index.size();
  return R;
}

void PersistStore::append(const JobResult &R) {
  std::lock_guard<std::mutex> L(Mu);
  if (!Opened || R.Fingerprint.empty() || !service::jobCacheable(R.Status))
    return;
  std::string Payload = encodeResultPayload(R);
  Index[R.Fingerprint] = {Log.append(Payload), uint32_t(Payload.size())};
  ++S.Appends;
  S.LiveRecords = Index.size();
  S.LogBytes = Log.size();
  if (++AppendsSinceFlush >= FlushEvery) {
    std::string Err;
    flushLocked(&Err);
  }
  if (Budget && Log.size() > Budget)
    compactLocked();
}

bool PersistStore::flush(std::string *Error) {
  std::lock_guard<std::mutex> L(Mu);
  if (!Opened)
    return true;
  return flushLocked(Error);
}

bool PersistStore::flushLocked(std::string *Error) {
  if (!Log.flush(Error))
    return false;
  AppendsSinceFlush = 0;
  S.Flushes = Log.flushCount();
  return true;
}

uint64_t PersistStore::replayInto(service::ResultCache &Cache) {
  std::lock_guard<std::mutex> L(Mu);
  if (!Opened)
    return 0;
  // Oldest-first so the newest records land most-recently-used in the
  // LRU (and survive longest if the memory budget is tighter than disk).
  uint64_t N = 0;
  for (const std::string &FP : appendOrderLocked()) {
    auto It = Index.find(FP);
    if (It == Index.end())
      continue; // Dropped by a corrupt read earlier in the loop.
    std::shared_ptr<const JobResult> R = readEntryLocked(FP, It->second);
    if (!R)
      continue;
    Cache.insert(FP, std::move(R));
    ++N;
  }
  S.Replayed += N;
  S.LiveRecords = Index.size();
  return N;
}

void PersistStore::compactLocked() {
  std::string Err;
  if (!flushLocked(&Err))
    return;

  // Evict oldest until the rewritten log would fit the budget.
  std::vector<std::string> Order = appendOrderLocked();
  uint64_t Projected = PersistHeaderBytes;
  for (const std::string &FP : Order)
    Projected += PersistRecordOverhead + Index[FP].PayloadLen;
  size_t Drop = 0;
  while (Projected > Budget && Drop < Order.size()) {
    Projected -= PersistRecordOverhead + Index[Order[Drop]].PayloadLen;
    ++Drop;
  }

  // Write the header and the surviving frames, still oldest first, to a
  // .tmp, fsync it and rename it over the log.  A crash mid-compaction
  // leaves either the old file or the complete new one -- never a
  // half-written rename.  Each frame is re-verified on the way and
  // copied as read, so its checksum still covers the original bytes.
  std::string Tmp = Log.path() + ".tmp";
  int Fd = ::open(Tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (Fd < 0)
    return; // Keep the old (oversized but valid) file.
  std::string Header =
      encodeHeader(service::CacheSchemaVersion, service::OptionsFormatVersion);
  bool Ok = writeAll(Fd, Header.data(), Header.size());
  uint64_t Offset = Header.size();
  std::vector<std::pair<std::string, IndexEntry>> Kept;
  std::string Frame;
  for (size_t I = Drop; Ok && I < Order.size(); ++I) {
    const IndexEntry &Old = Index[Order[I]];
    if (!readFrameLocked(Old, &Frame)) {
      ++S.Corrupt;
      continue;
    }
    Ok = writeAll(Fd, Frame.data(), Frame.size());
    Kept.emplace_back(Order[I], IndexEntry{Offset, Old.PayloadLen});
    Offset += Frame.size();
  }
  Ok = Ok && ::fsync(Fd) == 0;
  ::close(Fd);
  if (!Ok || ::rename(Tmp.c_str(), Log.path().c_str()) != 0) {
    ::unlink(Tmp.c_str());
    return; // The old file and its index stay in service.
  }

  S.Evictions += Drop;
  ++S.Compactions;
  Index.clear();
  std::string ReopenErr;
  if (!Log.open(&ReopenErr)) {
    Opened = false; // Disk tier degraded; memory tier keeps serving.
    S.LiveRecords = 0;
    S.LogBytes = 0;
    return;
  }
  for (auto &[FP, E] : Kept)
    Index.emplace(std::move(FP), E);
  S.LiveRecords = Index.size();
  S.LogBytes = Log.size();
}

PersistStats PersistStore::stats() const {
  std::lock_guard<std::mutex> L(Mu);
  return S;
}

} // namespace persist
} // namespace cai
