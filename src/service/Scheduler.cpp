//===- service/Scheduler.cpp - Sharded analysis worker pool ----------------===//

#include "service/Scheduler.h"

#include "analysis/Analyzer.h"
#include "domains/poly/Polyhedron.h"
#include "obs/EventLog.h"
#include "service/Driver.h"
#include "service/Fingerprint.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>

using namespace cai;
using namespace cai::service;

namespace {

/// Scopes the polyhedra row cap (a thread-local, so per-worker) to one job.
/// PolyMaxRows == SIZE_MAX keeps the build-wide default.
struct RowCapScope {
  explicit RowCapScope(size_t Cap) : Prev(polyRowCap()) {
    if (Cap != SIZE_MAX)
      setPolyRowCap(Cap);
  }
  ~RowCapScope() { setPolyRowCap(Prev); }
  size_t Prev;
};

/// Per-status counter in the calling worker's shard registry.  The name is
/// dynamic, so this bypasses the per-site probe cache; once per job is
/// cheap.
void bumpStatusCounter(JobStatus S) {
  obs::MetricsRegistry::current()
      .counter(std::string("service.jobs.status.") + statusName(S))
      .inc();
}

} // namespace

JobResult AnalysisScheduler::runJobIsolated(const JobSpec &Spec,
                                            const std::atomic<bool> *Cancel,
                                            const FixpointSnapshot *SnapIn,
                                            FixpointSnapshot *SnapOut,
                                            JobPhases *Phases) {
  JobResult R;
  R.Id = Spec.Id;
  R.Name = Spec.Name;
  R.Fingerprint = fingerprintJob(Spec);
  auto Begin = std::chrono::steady_clock::now();
  try {
    if (Spec.Opts.TestCrash)
      throw std::runtime_error("deliberate crash (TestCrash test hook)");

    // Everything below is built fresh per job: the term context, the
    // domain tree (with its memoization state), and the program.  No
    // state outlives the job, so results cannot depend on which worker
    // ran it or what ran before.
    ProgramSetup Setup;
    ProgramSetup::Status SS =
        Setup.prepare(Spec.Opts.DomainSpec, Spec.Opts.Encode,
                      Spec.ProgramText, Phases ? &Phases->ParseUs : nullptr);
    if (Setup.Domain)
      R.Domain = Setup.Domain->name();
    if (SS != ProgramSetup::Status::Ok) {
      R.Status = SS == ProgramSetup::Status::BadDomain ? JobStatus::BadDomain
                                                       : JobStatus::ParseError;
      R.Error = Setup.error();
      return R;
    }
    if (Phases)
      Phases->HasParse = true;
    LogicalLattice *Domain = Setup.Domain;
    const Program &Analyzed = Setup.Prog;

    AnalyzerOptions AOpts;
    AOpts.WideningDelay = Spec.Opts.WideningDelay;
    AOpts.NarrowingPasses = Spec.Opts.NarrowingPasses;
    AOpts.SemanticConvergence = Spec.Opts.SemanticConvergence;
    AOpts.Memoize = Spec.Opts.Memoize;
    AOpts.SnapshotIn = SnapIn;
    AOpts.SnapshotOut = SnapOut;
    AOpts.CancelFlag = Cancel;
    const bool HasDeadline = Spec.Opts.TimeoutMs != 0;
    if (HasDeadline)
      AOpts.Deadline =
          Begin + std::chrono::milliseconds(Spec.Opts.TimeoutMs);

    RowCapScope CapScope(Spec.Opts.PolyMaxRows);
    auto AnalyzeBegin = Phases ? std::chrono::steady_clock::now()
                               : std::chrono::steady_clock::time_point();
    AnalysisResult AR = Analyzer(*Domain, AOpts).run(Analyzed);
    if (Phases) {
      Phases->AnalyzeUs = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - AnalyzeBegin)
              .count());
      Phases->HasAnalyze = true;
    }

    R.Assertions = AR.Assertions;
    R.NumVerified = AR.numVerified();
    R.Stats = AR.Stats;
    if (AR.Cancelled) {
      if (HasDeadline && std::chrono::steady_clock::now() >= AOpts.Deadline) {
        R.Status = JobStatus::Timeout;
        R.Error = "deadline of " + std::to_string(Spec.Opts.TimeoutMs) +
                  " ms exceeded";
      } else {
        R.Status = JobStatus::Error;
        R.Error = "cancelled";
      }
    } else if (!AR.Converged) {
      R.Status = JobStatus::NotConverged;
      R.Error = "fixpoint did not converge (MaxUpdatesPerNode exceeded)";
    } else if (R.NumVerified == R.Assertions.size()) {
      R.Status = JobStatus::Verified;
    } else {
      R.Status = JobStatus::AssertionsFailed;
    }

    // Lint jobs: derive findings from the stabilized invariants.  Runs
    // only on converged results (runLint refuses anything else) and folds
    // into the cached bytes -- the Lint/LintChecks options are part of the
    // fingerprint, so an analyze job never serves a lint job's slot.
    if (Spec.Opts.Lint && AR.Converged && !AR.Cancelled) {
      auto LintBegin = Phases ? std::chrono::steady_clock::now()
                              : std::chrono::steady_clock::time_point();
      lint::LintOptions LOpts;
      LOpts.Checks = Spec.Opts.LintChecks;
      R.Findings = lint::runLint(Setup.Ctx, Analyzed, AR, *Domain, LOpts);
      R.Linted = true;
      if (Phases) {
        Phases->LintUs = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - LintBegin)
                .count());
        Phases->HasLint = true;
      }
    }
  } catch (const std::exception &E) {
    R.Status = JobStatus::Error;
    R.Error = E.what();
  } catch (...) {
    R.Status = JobStatus::Error;
    R.Error = "unknown exception";
  }
  R.DurationMs = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - Begin)
                     .count();
  return R;
}

AnalysisScheduler::AnalysisScheduler(const SchedulerOptions &O)
    : Opts(O), Cache(O.CacheBytes), Snapshots(O.SnapshotCacheBytes),
      // A slow-job threshold only makes sense with the telemetry channel
      // up, so SlowMs != 0 implies it.
      Hub(O.Telemetry || O.SlowMs != 0) {
  if (Opts.Workers == 0)
    Opts.Workers = 1;
  if (!Opts.ExemplarDir.empty()) {
    std::error_code EC;
    std::filesystem::create_directories(Opts.ExemplarDir, EC);
    // A failure surfaces later as an unwritable exemplar, which the
    // event log reports; the scheduler itself keeps going.
  }
  // Warm restart: replay the disk tier's live records into the memory
  // LRU before any worker starts, so a restarted server answers its old
  // corpus from memory at the same hit rate as a long-running one.
  if (Opts.Persist && Opts.Persist->ok())
    Opts.Persist->replayInto(Cache);
  // One epoch for every shard tracer so the merged timelines align.
  auto Epoch = std::chrono::steady_clock::now();
  for (unsigned I = 0; I < Opts.Workers; ++I) {
    auto Sh = std::make_unique<Shard>();
    Sh->Registry.enableTiming(Opts.Timing);
    if (Opts.CollectTraces)
      Sh->Trace =
          std::make_unique<obs::Tracer>(obs::Tracer::Sink::Buffer, Epoch);
    Shards.push_back(std::move(Sh));
  }
  Threads.reserve(Opts.Workers);
  for (unsigned I = 0; I < Opts.Workers; ++I)
    Threads.emplace_back([this, I] { workerMain(I); });
}

AnalysisScheduler::~AnalysisScheduler() {
  size_t Dropped = 0;
  {
    std::lock_guard<std::mutex> Lock(QueueMu);
    Stopping = true;
    Dropped = Queue.size();
    Queue.clear();
  }
  // Jobs already running see the flag at their next fixpoint step.
  CancelAll.store(true, std::memory_order_relaxed);
  QueueCv.notify_all();
  if (Dropped != 0) {
    std::lock_guard<std::mutex> Lock(ResultsMu);
    Pending -= Dropped;
    IdleCv.notify_all();
  }
  for (std::thread &T : Threads)
    T.join();
}

void AnalysisScheduler::onResult(ResultCallback CB) {
  std::lock_guard<std::mutex> Lock(ResultsMu);
  Callback = std::move(CB);
}

void AnalysisScheduler::submit(JobSpec Spec) {
  if (Hub.enabled())
    Spec.EnqueueTime = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> Lock(ResultsMu);
    ++Pending;
  }
  uint64_t Depth = 0;
  {
    std::lock_guard<std::mutex> Lock(QueueMu);
    assert(!Stopping && "submit() on a stopping scheduler");
    Queue.push_back(std::move(Spec));
    Depth = Queue.size();
  }
  QueueCv.notify_one();
  // Sampled at the submit boundary: the depth the job saw as it arrived.
  if (Hub.enabled())
    Hub.sampleQueueDepth(Depth);
}

uint64_t AnalysisScheduler::queueDepth() const {
  std::lock_guard<std::mutex> Lock(QueueMu);
  return Queue.size();
}

void AnalysisScheduler::waitIdle() {
  std::unique_lock<std::mutex> Lock(ResultsMu);
  IdleCv.wait(Lock, [&] { return Pending == 0; });
}

std::vector<JobResult> AnalysisScheduler::takeResults() {
  std::vector<JobResult> Out;
  {
    std::lock_guard<std::mutex> Lock(ResultsMu);
    Out.swap(Results);
  }
  std::sort(Out.begin(), Out.end(),
            [](const JobResult &A, const JobResult &B) { return A.Id < B.Id; });
  return Out;
}

void AnalysisScheduler::writeMergedTrace(std::ostream &OS) const {
  std::vector<const obs::Tracer *> Ts;
  Ts.reserve(Shards.size());
  for (const std::unique_ptr<Shard> &Sh : Shards)
    Ts.push_back(Sh->Trace.get());
  obs::Tracer::writeMergedJson(OS, Ts);
}

void AnalysisScheduler::mergeMetricsInto(obs::MetricsRegistry &Into) const {
  for (const std::unique_ptr<Shard> &Sh : Shards)
    Into.mergeFrom(Sh->Registry);
  ResultCacheStats CS = Cache.stats();
  Into.counter("service.cache.hits").inc(CS.Hits);
  Into.counter("service.cache.misses").inc(CS.Misses);
  Into.counter("service.cache.insertions").inc(CS.Insertions);
  Into.counter("service.cache.evictions").inc(CS.Evictions);
  Into.gauge("service.cache.entries").set(static_cast<double>(CS.Entries));
  Into.gauge("service.cache.bytes").set(static_cast<double>(CS.Bytes));
  SnapshotCacheStats SS = Snapshots.stats();
  Into.counter("service.snapshot_cache.hits").inc(SS.Hits);
  Into.counter("service.snapshot_cache.misses").inc(SS.Misses);
  Into.counter("service.snapshot_cache.insertions").inc(SS.Insertions);
  Into.counter("service.snapshot_cache.evictions").inc(SS.Evictions);
  Into.gauge("service.snapshot_cache.entries")
      .set(static_cast<double>(SS.Entries));
  Into.gauge("service.snapshot_cache.bytes")
      .set(static_cast<double>(SS.Bytes));
  IncrementalStats IS = incrementalStats();
  Into.counter("service.incremental.edits").inc(IS.Edits);
  Into.counter("service.incremental.components_reused")
      .inc(IS.ComponentsReused);
  Into.counter("service.incremental.components_recomputed")
      .inc(IS.ComponentsRecomputed);
  Into.counter("service.incremental.fallbacks").inc(IS.Fallbacks);
  if (Opts.Persist) {
    persist::PersistStats PS = Opts.Persist->stats();
    Into.counter("persist.hits").inc(PS.Hits);
    Into.counter("persist.misses").inc(PS.Misses);
    Into.counter("persist.appends").inc(PS.Appends);
    Into.counter("persist.flushes").inc(PS.Flushes);
    Into.counter("persist.corrupt").inc(PS.Corrupt);
    Into.counter("persist.stale_files").inc(PS.StaleFiles);
    Into.counter("persist.compactions").inc(PS.Compactions);
    Into.counter("persist.evictions").inc(PS.Evictions);
    Into.counter("persist.replayed").inc(PS.Replayed);
    Into.gauge("persist.live_records")
        .set(static_cast<double>(PS.LiveRecords));
    Into.gauge("persist.log_bytes").set(static_cast<double>(PS.LogBytes));
  }
  Hub.mergeInto(Into); // service.telemetry.* (no-op when telemetry off).
}

std::string AnalysisScheduler::telemetryJsonLine() {
  Json Rep = Hub.report(numWorkers());
  auto Permille = [](uint64_t Num, uint64_t Den) {
    return Json::integer(Den == 0 ? 0
                                  : static_cast<int64_t>((Num * 1000) / Den));
  };
  ResultCacheStats CS = Cache.stats();
  Json CacheObj = Json::object();
  CacheObj.set("hits", Json::integer(static_cast<int64_t>(CS.Hits)));
  CacheObj.set("misses", Json::integer(static_cast<int64_t>(CS.Misses)));
  CacheObj.set("hit_rate_permille", Permille(CS.Hits, CS.Hits + CS.Misses));
  Rep.set("result_cache", std::move(CacheObj));
  SnapshotCacheStats SS = Snapshots.stats();
  Json SnapObj = Json::object();
  SnapObj.set("hits", Json::integer(static_cast<int64_t>(SS.Hits)));
  SnapObj.set("misses", Json::integer(static_cast<int64_t>(SS.Misses)));
  SnapObj.set("hit_rate_permille", Permille(SS.Hits, SS.Hits + SS.Misses));
  Rep.set("snapshot_cache", std::move(SnapObj));
  if (Opts.Persist) {
    persist::PersistStats PS = Opts.Persist->stats();
    Json PersistObj = Json::object();
    PersistObj.set("hits", Json::integer(static_cast<int64_t>(PS.Hits)));
    PersistObj.set("misses",
                   Json::integer(static_cast<int64_t>(PS.Misses)));
    PersistObj.set("hit_rate_permille", Permille(PS.Hits, PS.Hits + PS.Misses));
    PersistObj.set("live_records",
                   Json::integer(static_cast<int64_t>(PS.LiveRecords)));
    PersistObj.set("log_bytes",
                   Json::integer(static_cast<int64_t>(PS.LogBytes)));
    Rep.set("persist", std::move(PersistObj));
  }
  Rep.set("queue_depth_now",
          Json::integer(static_cast<int64_t>(queueDepth())));
  Rep.set("jobs_finished",
          Json::integer(static_cast<int64_t>(jobsFinished())));
  return Rep.dump();
}

/// runJobIsolated plus the outcome counters and the telemetry wrappers:
/// phase timing when \p LS asks, and -- when SlowMs is armed -- a per-job
/// tracer that temporarily replaces whatever tracer is installed (the
/// shard tracer, usually), so a job that overruns the threshold arrives
/// with its own Perfetto-loadable engine trace instead of being lost in
/// the merged timeline.
JobResult AnalysisScheduler::runCaptured(const JobSpec &Spec,
                                         const FixpointSnapshot *SnapIn,
                                         FixpointSnapshot *SnapOut,
                                         LifecycleSample *LS) {
  JobPhases Phases;
  std::unique_ptr<obs::Tracer> JobTracer;
  obs::Tracer *Prev = nullptr;
  if (Opts.SlowMs != 0) {
    Prev = obs::Tracer::active();
    JobTracer = std::make_unique<obs::Tracer>(obs::Tracer::Sink::Buffer);
    obs::Tracer::install(JobTracer.get());
  }
  JobResult R = runJobIsolated(Spec, &CancelAll, SnapIn, SnapOut,
                               LS ? &Phases : nullptr);
  if (JobTracer)
    obs::Tracer::install(Prev);
  if (LS) {
    LS->ParseUs = Phases.ParseUs;
    LS->AnalyzeUs = Phases.AnalyzeUs;
    LS->LintUs = Phases.LintUs;
    LS->HasParse = Phases.HasParse;
    LS->HasAnalyze = Phases.HasAnalyze;
    LS->HasLint = Phases.HasLint;
  }

  if (Opts.SlowMs != 0 && R.DurationMs > static_cast<double>(Opts.SlowMs)) {
    SlowJobRecord Rec;
    Rec.Id = R.Id;
    Rec.Name = R.Name;
    Rec.TotalUs = static_cast<uint64_t>(R.DurationMs * 1000.0);
    if (!Opts.ExemplarDir.empty()) {
      std::string Path = Opts.ExemplarDir + "/slow-job-" +
                         std::to_string(R.Id) + ".trace.json";
      std::ofstream TOut(Path);
      if (TOut) {
        JobTracer->writeJson(TOut);
        Rec.TracePath = Path;
      } else if (obs::EventLog::global().enabled()) {
        obs::EventLog::global().emit(
            obs::Severity::Error, "service.scheduler", "exemplar-write-failed",
            {obs::EventField::str("path", Path)});
      }
    }
    if (obs::EventLog::global().enabled())
      obs::EventLog::global().emit(
          obs::Severity::Warn, "service.scheduler", "slow-job",
          {obs::EventField::num("id", Rec.Id),
           obs::EventField::str("name", Rec.Name),
           obs::EventField::num("total_us", Rec.TotalUs),
           obs::EventField::str("trace", Rec.TracePath)});
    Hub.recordSlowJob(std::move(Rec));
  }
  CAI_METRIC_INC("service.jobs.completed");
  bumpStatusCounter(R.Status);
  noteOutcome(Spec, R);
  return R;
}

void AnalysisScheduler::noteOutcome(const JobSpec &Spec, const JobResult &R) {
  obs::EventLog &Log = obs::EventLog::global();
  if (!Log.enabled())
    return;
  const char *Event = nullptr;
  obs::Severity Sev = obs::Severity::Warn;
  switch (R.Status) {
  case JobStatus::Timeout:
    Event = "job-timeout";
    break;
  case JobStatus::Error:
    Event = "job-error";
    Sev = obs::Severity::Error;
    break;
  case JobStatus::NotConverged:
    Event = "job-not-converged";
    break;
  case JobStatus::ParseError:
    Event = "job-parse-error";
    break;
  case JobStatus::BadDomain:
    Event = "job-bad-domain";
    break;
  default:
    break;
  }
  if (Event)
    Log.emit(Sev, "service.scheduler", Event,
             {obs::EventField::num("id", R.Id),
              obs::EventField::str("name", R.Name),
              obs::EventField::str("error", R.Error)});
  if (Spec.Edit && R.Stats.ComponentsReused == 0)
    Log.emit(obs::Severity::Info, "service.scheduler", "incremental-fallback",
             {obs::EventField::num("id", R.Id),
              obs::EventField::str("name", R.Name)});
}

JobResult AnalysisScheduler::serveHit(const JobSpec &Spec,
                                      const JobResult &Hit,
                                      LifecycleSample *LS) {
  JobResult R = Hit;
  R.Id = Spec.Id;
  R.Name = Spec.Name;
  R.CacheHit = true;
  R.DurationMs = 0;
  if (LS)
    LS->CacheHit = true;
  return R;
}

void AnalysisScheduler::storeResult(const std::string &FP, const JobResult &R,
                                    LifecycleSample *LS,
                                    const std::function<void()> &AlsoPublish) {
  if (!jobCacheable(R.Status))
    return;
  auto WriteBegin = LS ? std::chrono::steady_clock::now()
                       : std::chrono::steady_clock::time_point();
  Cache.insert(FP, std::make_shared<const JobResult>(R));
  if (Opts.Persist)
    Opts.Persist->append(R);
  if (AlsoPublish)
    AlsoPublish();
  if (LS) {
    LS->CacheWriteUs = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - WriteBegin)
            .count());
    LS->HasCacheWrite = true;
  }
}

JobResult AnalysisScheduler::executeOrServe(const JobSpec &Spec,
                                            LifecycleSample *LS) {
  // TestCrash jobs bypass both cache tiers entirely: the hook exists to
  // exercise the crash path, and crashes are not cacheable anyway.
  if (Spec.Opts.TestCrash)
    return runCaptured(Spec, nullptr, nullptr, LS);

  std::string FP = fingerprintJob(Spec);
  if (std::shared_ptr<const JobResult> Hit = Cache.lookup(FP)) {
    CAI_METRIC_INC("service.jobs.cache_hits");
    return serveHit(Spec, *Hit, LS);
  }

  // Disk tier: a memory miss probes the persist store before computing.
  // A hit is promoted into the LRU (so the next submission is a memory
  // hit) and served exactly like a memory hit -- same "cached":true
  // bytes, same replayed stats.
  if (Opts.Persist) {
    if (std::shared_ptr<const JobResult> DiskHit = Opts.Persist->lookup(FP)) {
      CAI_METRIC_INC("service.jobs.persist_hits");
      Cache.insert(FP, DiskHit);
      return serveHit(Spec, *DiskHit, LS);
    }
  }

  // Snapshot tier: only jobs with a known identity (explicit program_id
  // or an analyze_edit request) pay for snapshot recording; everything
  // else runs exactly as before.
  const bool Identified = !Spec.ProgramId.empty() || Spec.Edit;
  if (!Identified) {
    JobResult R = runCaptured(Spec, nullptr, nullptr, LS);
    storeResult(FP, R, LS);
    return R;
  }

  std::string Canon = canonicalProgramText(Spec.ProgramText);
  std::string OptKey = optionsFingerprint(Spec.Opts);
  std::shared_ptr<const FixpointSnapshot> SnapIn;
  if (Spec.Edit) {
    Edits.fetch_add(1, std::memory_order_relaxed);
    SnapIn = Snapshots.lookup(Spec.ProgramId, Canon, OptKey);
  }

  FixpointSnapshot SnapOut;
  JobResult R = runCaptured(Spec, SnapIn.get(), &SnapOut, LS);

  ComponentsReused.fetch_add(R.Stats.ComponentsReused,
                             std::memory_order_relaxed);
  ComponentsRecomputed.fetch_add(R.Stats.ComponentsRecomputed,
                                 std::memory_order_relaxed);
  // A fallback is an edit that ran from scratch anyway: no usable
  // snapshot, or a WTO-shape change that invalidated every component.
  if (Spec.Edit && R.Stats.ComponentsReused == 0)
    IncrementalFallbacks.fetch_add(1, std::memory_order_relaxed);

  storeResult(FP, R, LS, [&] {
    if (SnapOut.Complete)
      Snapshots.insert(Spec.ProgramId, std::move(Canon), std::move(OptKey),
                       std::make_shared<const FixpointSnapshot>(
                           std::move(SnapOut)));
  });
  return R;
}

void AnalysisScheduler::workerMain(unsigned Index) {
  Shard &Sh = *Shards[Index];
  // Claim the shard observability for this thread before any probe runs.
  Sh.Registry.adoptByCurrentThread();
  obs::MetricsRegistry::install(&Sh.Registry);
  if (Sh.Trace) {
    Sh.Trace->adoptByCurrentThread();
    obs::Tracer::install(Sh.Trace.get());
  }
  const bool Telemetry = Hub.enabled();
  for (;;) {
    JobSpec Spec;
    {
      std::unique_lock<std::mutex> Lock(QueueMu);
      QueueCv.wait(Lock, [&] { return Stopping || !Queue.empty(); });
      if (Queue.empty())
        break; // Stopping, and nothing left to drain.
      Spec = std::move(Queue.front());
      Queue.pop_front();
    }
    // Lifecycle stamping (telemetry channel only): queued -> scheduled
    // here, parsed/analyzed/cache-write inside executeOrServe, responded
    // after the callback below.
    LifecycleSample LS;
    auto Dequeued = std::chrono::steady_clock::time_point();
    if (Telemetry) {
      Dequeued = std::chrono::steady_clock::now();
      LS.QueueUs = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              Dequeued - Spec.EnqueueTime)
              .count());
    }
    JobResult R = executeOrServe(Spec, Telemetry ? &LS : nullptr);
    Finished.fetch_add(1, std::memory_order_relaxed);
    auto RespondBegin = Telemetry ? std::chrono::steady_clock::now()
                                  : std::chrono::steady_clock::time_point();
    {
      std::lock_guard<std::mutex> Lock(ResultsMu);
      if (Callback)
        Callback(R);
      Results.push_back(std::move(R));
      if (!Telemetry)
        --Pending;
    }
    if (Telemetry) {
      // Record the lifecycle sample BEFORE retiring the job from Pending,
      // so waitIdle() (stats drain, shutdown) implies the hub has seen
      // every finished job -- phase counts equal jobs deterministically.
      auto Done = std::chrono::steady_clock::now();
      LS.RespondUs = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(Done -
                                                                RespondBegin)
              .count());
      LS.TotalUs = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              Done - Spec.EnqueueTime)
              .count());
      Hub.recordJob(LS, Index);
      std::lock_guard<std::mutex> Lock(ResultsMu);
      --Pending;
    }
    IdleCv.notify_all();
  }
  obs::Tracer::install(nullptr);
  obs::MetricsRegistry::install(nullptr);
}
