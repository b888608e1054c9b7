//===- perfbench/src/main.cpp - Repository benchmark harness ---------------===//
///
/// One load-generating process for the three workloads of BENCHMARK.json:
///
///   e10-cold     the E10 cost/precision sweep (affine, uf, direct, reduced,
///                logical x tracks 1..3), every job on a fresh TermContext,
///                fresh domain tree and empty memo caches;
///   gen-poly-uf  seeded interp::generateProgram text through
///                AnalysisScheduler::runJobIsolated under logical:poly,uf;
///   serve-mixed  a closed-loop client driving a cai-serve child with fresh
///                analyses, repeats (result-cache hits) and suffix edits.
///
/// Every run does a fixed amount of work and checks every output against a
/// reference that does not come from the timed path.  --trace 0 prints the
/// end-to-end metrics; --trace 1 prints the per-layer metrics, measured by
/// a separate traced pass whose outputs and counts must equal the untraced
/// pass's.  perfbench/README.md documents the workloads and metrics.
///
//===----------------------------------------------------------------------===//

#include "TimedLattice.h"
#include "serve_client.h"

#include "analysis/Analyzer.h"
#include "domains/affine/AffineDomain.h"
#include "domains/poly/PolyDomain.h"
#include "domains/poly/Polyhedron.h"
#include "domains/uf/UFDomain.h"
#include "interp/Oracle.h"
#include "interp/ProgramGen.h"
#include "ir/ProgramParser.h"
#include "obs/Metrics.h"
#include "product/DirectProduct.h"
#include "product/LogicalProduct.h"
#include "service/Fingerprint.h"
#include "service/Json.h"
#include "service/Protocol.h"
#include "service/Scheduler.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <malloc.h>
#include <sched.h>
#include <spawn.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace cai;
using namespace perfbench;
using Clock = std::chrono::steady_clock;
using Counts = std::map<std::string, uint64_t>;

namespace {

//===-- Options and small helpers -----------------------------------------===//

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  bool Trace = false;
  bool Smoke = false;            ///< Tiny corpora for the self-test.
  bool CorruptReference = false; ///< Self-test hook: the run must fail.
  bool SetupOnly = false;        ///< Child of setupInFreshProcess().
  std::string Serve;
};

/// Repetitions of a corpus; a job's time is its minimum over them.  The
/// repetitions run one after the other, each in its own seeded order, so
/// the repetitions of one job lie seconds apart and a slow phase of the
/// host rarely covers all of them.  Every job runs Min times; jobs whose
/// minimum so far is under Cheap seconds run up to Max times, because a
/// slow phase moves a short job by more than its own noise.  Jobs whose
/// first time is at least Single seconds run only once.
struct Passes {
  unsigned Min, Max;
  double Cheap;
  double Single = 1e300;
};
/// e10-cold rates by the corpus total, which its logical k=3 jobs
/// dominate, so every job runs at least twice.  gen-poly-uf rates by the
/// geometric mean and percentiles, which its rare multi-second programs
/// (one in ~2000, far beyond the p99) do not move, so a job over 0.2 s
/// runs once, plus once in the reference pass.
constexpr Passes E10Passes{2, 4, 0.5}, GenPasses{2, 5, 0.05, 0.2},
    OnePass{1, 1, 0};
/// cai-serve instances, each served the whole request stream.
constexpr unsigned ServeReps = 4;
/// setup_s: set-ups made before timing, then one more whenever this many
/// seconds of the timed passes have gone by since the last (SetupSampler).
constexpr unsigned SetupsBefore = 4;
constexpr double SetupInterval = 0.5;

double since(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

uint64_t splitmix(uint64_t &X) {
  uint64_t Z = (X += 0x9e3779b97f4a7c15ull);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

/// The vCPUs of the host this runs on differ in speed, and the difference
/// moves within seconds: one fixed spin read 20 ms on one vCPU and 28 ms on
/// another at the same moment (other tenants' load on the host), and a
/// thread that the scheduler leaves on a slow vCPU slows a whole run.
/// CpuPicker pins the calling thread to the vCPU on which a short fixed
/// spin runs fastest, and tick(), called between timed jobs, probes again
/// whenever PickInterval seconds have gone by.  The timed work itself is
/// unchanged; only where it runs is chosen.
class CpuPicker {
public:
  CpuPicker() {
    CPU_ZERO(&Allowed);
    ::sched_getaffinity(0, sizeof(Allowed), &Allowed);
  }
  ~CpuPicker() { ::sched_setaffinity(0, sizeof(Allowed), &Allowed); }
  CpuPicker(const CpuPicker &) = delete;
  CpuPicker &operator=(const CpuPicker &) = delete;

  /// Probes every allowed vCPU, pins the calling thread to the fastest and
  /// returns it.
  int pick() {
    int Best = -1;
    double BestSeconds = 0;
    for (int Cpu = 0; Cpu < CPU_SETSIZE; ++Cpu) {
      if (!CPU_ISSET(Cpu, &Allowed) || !pinTo(Cpu))
        continue;
      spin();
      double S = std::min(spin(), spin());
      if (Best < 0 || S < BestSeconds) {
        Best = Cpu;
        BestSeconds = S;
      }
    }
    if (Best >= 0)
      pinTo(Best);
    Last = Clock::now();
    Picker = std::this_thread::get_id();
    return Best;
  }
  /// True when the last probe is PickInterval seconds old.
  bool due() const { return since(Last) >= PickInterval; }
  /// Picks when due or when called from another thread than the last pick
  /// (each repetition runs on a fresh thread).
  void tick() {
    if (due() || std::this_thread::get_id() != Picker)
      pick();
  }

private:
  static constexpr double PickInterval = 0.5;

  static bool pinTo(int Cpu) {
    cpu_set_t One;
    CPU_ZERO(&One);
    CPU_SET(Cpu, &One);
    return ::sched_setaffinity(0, sizeof(One), &One) == 0;
  }
  /// Seconds of a fixed ~50 us integer loop.
  static double spin() {
    auto T0 = Clock::now();
    uint64_t X = 0x5eed;
    for (int I = 0; I < 20000; ++I)
      splitmix(X);
    Sink = X;
    return since(T0);
  }
  static inline volatile uint64_t Sink = 0;

  cpu_set_t Allowed;
  Clock::time_point Last = Clock::now();
  std::thread::id Picker;
};

/// A seeded permutation of 0..N-1.
std::vector<size_t> permutation(size_t N, uint64_t Seed) {
  std::vector<size_t> P(N);
  std::iota(P.begin(), P.end(), 0);
  uint64_t X = Seed;
  for (size_t I = N; I > 1; --I)
    std::swap(P[I - 1], P[splitmix(X) % I]);
  return P;
}

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N == 0 ? 0 : N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// Nearest-rank percentile.
double percentile(std::vector<double> V, double Q) {
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(Q * static_cast<double>(V.size())));
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

/// Returns freed heap to the system and restarts the kernel's peak-RSS
/// counter, so that the next peakRssMbSelf() reads the peak since now.
void resetPeakRss() {
  malloc_trim(0);
  if (FILE *F = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", F);
    std::fclose(F);
  }
}

double peakRssMbSelf() { return peakRssMb("/proc/self/status"); }

Counts counterDelta(const Counts &Before, const Counts &After) {
  Counts D;
  for (const auto &[Name, V] : After) {
    auto It = Before.find(Name);
    uint64_t Old = It == Before.end() ? 0 : It->second;
    if (V != Old)
      D[Name] = V - Old;
  }
  return D;
}

void addStats(Counts &C, const AnalyzerStats &S) {
  C["stats.joins"] = S.Joins;
  C["stats.widenings"] = S.Widenings;
  C["stats.transfers"] = S.Transfers;
  C["stats.entailment_checks"] = S.EntailmentChecks;
  C["stats.edge_evals"] = S.EdgeEvals;
  C["stats.transfer_cache_hits"] = S.TransferCacheHits;
  C["stats.cache_hits"] = S.CacheHits;
  C["stats.cache_misses"] = S.CacheMisses;
  C["stats.saturation_rounds"] = S.SaturationRounds;
  C["stats.node_updates"] = S.TotalNodeUpdates;
  C["stats.max_node_updates"] = S.MaxNodeUpdates;
}

/// The result line: metrics in insertion order with their units.
struct Report {
  bool Correct = true;
  uint64_t Attempted = 0, Failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> Metrics;

  void add(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, {Value, Unit}});
  }
  void fail(const std::string &Why) {
    Correct = false;
    std::cerr << "perfbench: check failed: " << Why << "\n";
  }
  std::string json() const {
    std::ostringstream OS;
    OS.precision(10);
    OS << "{\"correct\": " << (Correct ? "true" : "false")
       << ", \"attempted\": " << Attempted << ", \"failed\": " << Failed
       << ", \"metrics\": {";
    for (size_t I = 0; I < Metrics.size(); ++I)
      OS << (I ? ", " : "") << "\"" << Metrics[I].first
         << "\": {\"value\": " << Metrics[I].second.first << ", \"unit\": \""
         << Metrics[I].second.second << "\"}";
    OS << "}}";
    return OS.str();
  }
};

/// Latency percentiles over per-job seconds.  Every workload has at least
/// 100 samples (the smoke corpora too), so that ten lie beyond the p90.
void addLatency(Report &R, const std::vector<double> &Seconds) {
  std::vector<double> Ms;
  for (double S : Seconds)
    Ms.push_back(S * 1000);
  R.add("latency_ms_p50", percentile(Ms, 0.5), "ms");
  R.add("latency_ms_p90", percentile(Ms, 0.9), "ms");
}

/// What a run checked: jobs, how many succeeded and matched their
/// reference, and the assertions they verified.
struct Tally {
  uint64_t Jobs = 0, Ok = 0, Agree = 0;
  unsigned long Verified = 0, Assertions = 0;
};

/// The end-to-end metrics (--trace 0), the same list on every workload.
void addEndToEnd(Report &R, double Rate, const std::vector<double> &Seconds,
                 const Tally &T, double PeakRssMb, double SetupS) {
  R.add("programs_per_s", Rate, "1/s");
  addLatency(R, Seconds);
  R.add("ok_ratio", double(T.Ok) / double(T.Jobs), "ratio");
  R.add("verdict_agreement", double(T.Agree) / double(T.Jobs), "ratio");
  R.add("verified_ratio",
        T.Assertions ? double(T.Verified) / double(T.Assertions) : 0,
        "ratio");
  R.add("peak_rss_mb", PeakRssMb, "MiB");
  R.add("setup_s", SetupS, "s");
}

//===-- Lattice trees, plain or timed -------------------------------------===//

/// The traced pass's layer clocks (one set per thread).
struct Layers {
  LayerClock Analysis, Product, Affine, UF, Poly;
};

struct Tree {
  std::vector<std::unique_ptr<LogicalLattice>> Own;
  LogicalLattice *Top = nullptr;

  template <class D, class... A>
  LogicalLattice &make(LayerClock *C, A &&...Args) {
    if (C)
      Own.push_back(std::make_unique<Timed<D>>(*C, std::forward<A>(Args)...));
    else
      Own.push_back(std::make_unique<D>(std::forward<A>(Args)...));
    Top = Own.back().get();
    return *Top;
  }
};

/// E10 tiers: 0 affine, 1 uf, 2 direct, 3 reduced, 4 logical (the tier
/// numbering of expectedVerified).
void buildE10(Tree &T, TermContext &Ctx, unsigned Tier, Layers *L) {
  if (Tier == 1) {
    T.make<UFDomain>(L ? &L->UF : nullptr, Ctx);
    return;
  }
  LogicalLattice &LA = T.make<AffineDomain>(L ? &L->Affine : nullptr, Ctx);
  if (Tier == 0)
    return;
  LogicalLattice &UF = T.make<UFDomain>(L ? &L->UF : nullptr, Ctx);
  LayerClock *P = L ? &L->Product : nullptr;
  if (Tier == 2)
    T.make<DirectProduct>(P, Ctx, LA, UF);
  else
    T.make<LogicalProduct>(P, Ctx, LA, UF,
                           Tier == 3 ? LogicalProduct::Mode::Reduced
                                     : LogicalProduct::Mode::Logical);
}

/// logical:poly,uf or logical:affine,uf, built in DomainFactory's order.
void buildLogical(Tree &T, TermContext &Ctx, bool Poly, Layers *L) {
  LogicalLattice &Num =
      Poly ? T.make<PolyDomain>(L ? &L->Poly : nullptr, Ctx)
           : T.make<AffineDomain>(L ? &L->Affine : nullptr, Ctx);
  LogicalLattice &UF = T.make<UFDomain>(L ? &L->UF : nullptr, Ctx);
  T.make<LogicalProduct>(L ? &L->Product : nullptr, Ctx, Num, UF,
                         LogicalProduct::Mode::Logical);
}

AnalysisResult analyze(const LogicalLattice &Top, const Program &P,
                       Layers *L) {
  if (!L)
    return Analyzer(Top).run(P);
  Span S(L->Analysis, Op::Run);
  return Analyzer(Top).run(P);
}

//===-- Repeated passes over a job list -----------------------------------===//

/// What one execution of one job produced.
struct JobOut {
  bool Ran = false;     ///< False where a repetition skipped the job.
  double Seconds = 0;   ///< Timed part only.
  std::string Output;   ///< The bytes compared against references.
  Counts Count;         ///< Registry counter deltas plus AnalyzerStats.
  bool Ok = false;      ///< Converged, well-formed result.
  unsigned Verified = 0, Assertions = 0;
};

/// Runs the repetitions of \p P, each on a fresh thread (one at a time) in
/// its own seeded order and with its own metrics registry.  \p Run(Pass,
/// Job, Registry) executes one job and fills a JobOut (timing included).
/// \p Finish, when set, sees each pass's registry after its last job.
using JobFn = std::function<JobOut(unsigned, size_t, obs::MetricsRegistry &)>;
using FinishFn = std::function<void(unsigned, obs::MetricsRegistry &)>;

std::vector<std::vector<JobOut>> runPasses(size_t NJobs, Passes P,
                                           uint64_t Seed, bool Timing,
                                           const JobFn &Run,
                                           const FinishFn &Finish = {}) {
  std::vector<std::vector<JobOut>> Out(P.Max, std::vector<JobOut>(NJobs));
  std::vector<double> Best(NJobs, 0);
  for (unsigned T = 0; T < P.Max; ++T) {
    std::thread Worker([&, T] {
      obs::MetricsRegistry Reg;
      Reg.adoptByCurrentThread();
      Reg.enableTiming(Timing);
      obs::MetricsRegistry::install(&Reg);
      for (size_t J : permutation(NJobs, Seed * 7919 + T)) {
        if ((T >= P.Min && Best[J] >= P.Cheap) ||
            (T > 0 && Best[J] >= P.Single))
          continue;
        Out[T][J] = Run(T, J, Reg);
        Out[T][J].Ran = true;
        Best[J] = T == 0 ? Out[T][J].Seconds
                         : std::min(Best[J], Out[T][J].Seconds);
      }
      if (Finish)
        Finish(T, Reg);
      obs::MetricsRegistry::install(nullptr);
    });
    Worker.join();
  }
  return Out;
}

/// One repetition's job times.
std::vector<double> passSeconds(const std::vector<JobOut> &Pass) {
  std::vector<double> S;
  for (const JobOut &O : Pass)
    S.push_back(O.Seconds);
  return S;
}

double sum(const std::vector<double> &V) {
  return std::accumulate(V.begin(), V.end(), 0.0);
}

/// Jobs per second at the geometric-mean job time.
double geoRate(const std::vector<double> &Seconds) {
  double LogSum = 0;
  for (double S : Seconds)
    LogSum += std::log(S);
  return 1.0 / std::exp(LogSum / static_cast<double>(Seconds.size()));
}

/// Per-job minimum over repetitions.
std::vector<double> minSeconds(const std::vector<std::vector<JobOut>> &P) {
  std::vector<double> S(P[0].size());
  for (size_t J = 0; J < S.size(); ++J) {
    S[J] = P[0][J].Seconds;
    for (const auto &Pass : P)
      if (Pass[J].Ran)
        S[J] = std::min(S[J], Pass[J].Seconds);
  }
  return S;
}

/// Median over the first \p Min repetitions of \p F(pass times); a job
/// that a repetition skipped (Passes::Single) counts with its first time.
double medianFullPass(const std::vector<std::vector<JobOut>> &P, unsigned Min,
                      double (*F)(const std::vector<double> &)) {
  std::vector<double> V;
  for (unsigned T = 0; T < Min; ++T) {
    std::vector<double> S = passSeconds(P[T]);
    for (size_t J = 0; J < S.size(); ++J)
      if (!P[T][J].Ran)
        S[J] = P[0][J].Seconds;
    V.push_back(F(S));
  }
  return median(V);
}

/// Names whose counts differ between \p A and \p B (absent means 0).
std::vector<std::string> countDiff(const Counts &A, const Counts &B) {
  Counts All = A;
  All.insert(B.begin(), B.end());
  std::vector<std::string> Diff;
  for (const auto &Entry : All) {
    auto IA = A.find(Entry.first), IB = B.find(Entry.first);
    if ((IA == A.end() ? 0 : IA->second) != (IB == B.end() ? 0 : IB->second))
      Diff.push_back(Entry.first);
  }
  return Diff;
}

/// Exact-repeat check: every repetition's outputs and counts must equal
/// the first one's.  Output differences fail the run; a count that differs is only
/// reported as not claimable.
void checkRepeat(Report &R, const std::vector<std::vector<JobOut>> &P,
                 const char *What) {
  std::map<std::string, unsigned> Unstable;
  for (size_t J = 0; J < P[0].size(); ++J)
    for (size_t T = 1; T < P.size(); ++T) {
      if (!P[T][J].Ran)
        continue;
      if (P[T][J].Output != P[0][J].Output)
        R.fail(std::string(What) + ": job " + std::to_string(J) +
               " output differs between repetitions");
      for (const std::string &Name : countDiff(P[0][J].Count, P[T][J].Count))
        ++Unstable[Name];
    }
  for (const auto &[Name, N] : Unstable)
    std::cerr << "perfbench: " << What << ": count " << Name
              << " differs between repetitions of the same job (" << N
              << " jobs): not claimable\n";
}

/// Traced-run fidelity: outputs and counts of the traced pass must equal
/// the untraced pass's, job by job.
void checkFidelity(Report &R, const std::vector<std::vector<JobOut>> &Plain,
                   const std::vector<std::vector<JobOut>> &Traced) {
  for (size_t J = 0; J < Plain[0].size(); ++J) {
    if (Traced[0][J].Output != Plain[0][J].Output)
      R.fail("traced job " + std::to_string(J) + " output differs");
    std::string Diff;
    for (const std::string &Name : countDiff(Plain[0][J].Count,
                                             Traced[0][J].Count))
      Diff += " " + Name;
    if (!Diff.empty())
      R.fail("traced job " + std::to_string(J) + " counts differ:" + Diff);
  }
}

/// Sums the per-layer totals and registry data of a traced pass.
struct LayerTotals {
  Layers Sum;
  std::map<std::string, double> HistSeconds; ///< Registry histograms.
  Counts Count;

  void add(const Layers &L) {
    const LayerClock *Src[] = {&L.Analysis, &L.Product, &L.Affine, &L.UF,
                               &L.Poly};
    LayerClock *Dst[] = {&Sum.Analysis, &Sum.Product, &Sum.Affine, &Sum.UF,
                         &Sum.Poly};
    for (int I = 0; I < 5; ++I) {
      Dst[I]->Calls += Src[I]->Calls;
      Dst[I]->Inclusive += Src[I]->Inclusive;
      Dst[I]->Self += Src[I]->Self;
      for (unsigned O = 0; O < NumOps; ++O)
        Dst[I]->ByOp[O] += Src[I]->ByOp[O];
    }
  }
  void addCounts(const Counts &C) {
    for (const auto &[Name, V] : C)
      Count[Name] += V;
  }
  uint64_t count(const std::string &Name) const {
    auto It = Count.find(Name);
    return It == Count.end() ? 0 : It->second;
  }
};

double ratio(uint64_t Num, uint64_t Den) {
  return Den == 0 ? 0 : static_cast<double>(Num) / static_cast<double>(Den);
}

/// The service layer as cai-serve's own stats reply reports it; zero on
/// the library workloads, which run no service.
struct ServiceNums {
  double ResultCacheHitRatio = 0, SnapshotReuseRatio = 0, EditFallbacks = 0;
};

/// The per-layer metrics (--trace 1), the same list on every workload.
/// \p T sums the traced pass; \p ParseS is its parsing time (outside
/// analysis.run_s); \p ShareOf holds the jobs the share.* metrics describe,
/// named \p Subset in the stderr line that names the largest share.  A time
/// is printed only for a layer that every workload runs; a layer some
/// workload lacks (parser, polyhedra, service) is given as a share, count
/// or ratio, which is then 0 there.
void addPerLayer(Report &R, double Overhead, double ParseS,
                 const LayerTotals &T, const Layers &ShareOf,
                 const std::string &Subset, const ServiceNums &Svc) {
  const Layers &L = T.Sum;
  double Run = L.Analysis.Inclusive;
  auto Hist = [&](const char *Name) {
    auto It = T.HistSeconds.find(Name);
    return It == T.HistSeconds.end() ? 0.0 : It->second;
  };
  R.add("trace.overhead_ratio", Overhead, "ratio");
  R.add("ir.parse_share", ParseS + Run > 0 ? ParseS / (ParseS + Run) : 0,
        "ratio");

  R.add("analysis.run_s", Run, "s");
  R.add("analysis.self_s", L.Analysis.Self, "s");
  R.add("analysis.node_updates", double(T.count("stats.node_updates")),
        "count");
  uint64_t Lookups = T.count("stats.cache_hits") + T.count("stats.cache_misses");
  R.add("analysis.lattice_cache_hit_ratio",
        ratio(T.count("stats.cache_hits"), Lookups), "ratio");
  R.add("analysis.lattice_cache_lookups", double(Lookups), "count");
  R.add("analysis.transfer_cache_hit_ratio",
        ratio(T.count("stats.transfer_cache_hits"), T.count("stats.edge_evals")),
        "ratio");
  R.add("analysis.edge_evals", double(T.count("stats.edge_evals")), "count");

  auto OpS = [&](Op O) { return L.Product.ByOp[static_cast<unsigned>(O)]; };
  // Widening is folded into joins: under logical:affine,uf the serve-mixed
  // programs never widen the product, and a time that is 0 on every run
  // of a workload measures nothing there.
  R.add("product.join_s", OpS(Op::Join) + OpS(Op::Widen), "s");
  R.add("product.exist_quant_s", OpS(Op::ExistQuant), "s");
  R.add("product.entail_s", OpS(Op::Entail), "s");
  R.add("product.other_s", OpS(Op::Meet) + OpS(Op::Other), "s");
  R.add("product.calls", double(L.Product.Calls), "count");
  R.add("product.self_s", L.Product.Self, "s");

  R.add("theory.no_rounds", double(T.count("nelson_oppen.rounds")), "count");
  R.add("theory.saturate_s", Hist("nelson_oppen.saturate_us"), "s");
  uint64_t PHits = T.count("product.purify_saturate.cache_hits");
  uint64_t PLookups = PHits + T.count("product.purify_saturate.misses");
  R.add("theory.purify_cache_hit_ratio", ratio(PHits, PLookups), "ratio");
  R.add("theory.purify_lookups", double(PLookups), "count");

  // The numeric component is affine on e10-cold and serve-mixed and
  // polyhedra on gen-poly-uf; the *_calls counts tell them apart.
  R.add("domains.numeric_s", L.Affine.Inclusive + L.Poly.Inclusive, "s");
  R.add("domains.uf_s", L.UF.Inclusive, "s");
  R.add("domains.affine_calls", double(L.Affine.Calls), "count");
  R.add("domains.uf_calls", double(L.UF.Calls), "count");
  R.add("domains.poly_calls", double(L.Poly.Calls), "count");

  R.add("poly.simplex_share", Run > 0 ? Hist("simplex.solve_us") / Run : 0,
        "ratio");
  R.add("poly.simplex_solves", double(T.count("simplex.solves")), "count");
  R.add("poly.simplex_pivots", double(T.count("simplex.pivots")), "count");
  R.add("poly.warmstarts", double(T.count("simplex.warmstart")), "count");
  uint64_t LHits = T.count("simplex.cache.hits");
  uint64_t LLookups = LHits + T.count("simplex.cache.misses");
  R.add("poly.lp_cache_hit_ratio", ratio(LHits, LLookups), "ratio");
  R.add("poly.lp_cache_lookups", double(LLookups), "count");
  R.add("uf.cc_s", Hist("congruence_closure.propagate_us"), "s");
  R.add("uf.cc_propagations",
        double(T.count("congruence_closure.propagations")), "count");

  // Each layer's exclusive share of analysis.run_s over ShareOf.
  double SubRun = ShareOf.Analysis.Inclusive;
  std::vector<std::pair<std::string, double>> Shares = {
      {"analysis_self", ShareOf.Analysis.Self},
      {"product_self", ShareOf.Product.Self},
      {"affine", ShareOf.Affine.Inclusive},
      {"uf", ShareOf.UF.Inclusive},
      {"poly", ShareOf.Poly.Inclusive}};
  for (auto &[Name, S] : Shares) {
    S = SubRun > 0 ? S / SubRun : 0;
    R.add("share." + Name, S, "ratio");
  }
  auto Max = std::max_element(
      Shares.begin(), Shares.end(),
      [](const auto &A, const auto &B) { return A.second < B.second; });
  std::cerr << "perfbench: on " << Subset << ", the largest share of "
            << "analysis.run_s is " << Max->first << " ("
            << Max->second * 100 << "%)\n";

  R.add("service.result_cache_hit_ratio", Svc.ResultCacheHitRatio, "ratio");
  R.add("service.snapshot_reuse_ratio", Svc.SnapshotReuseRatio, "ratio");
  R.add("service.edit_fallbacks", Svc.EditFallbacks, "count");
}

/// Registry histogram sums (seconds) of one thread's registry.
void readHistograms(LayerTotals &T, obs::MetricsRegistry &Reg) {
  for (const char *Name : {"nelson_oppen.saturate_us", "simplex.solve_us",
                           "congruence_closure.propagate_us"})
    T.HistSeconds[Name] += Reg.histogram(Name).sum() / 1e6;
}

/// setup_s: the median over many set-ups spread over the run.  The host's
/// speed shifts by up to 60 % from one second to the next, and a batch of
/// set-ups made at one moment shares that moment's speed; so after
/// SetupsBefore set-ups before timing, tick(), called between timed jobs,
/// makes one more whenever SetupInterval seconds have gone by.
class SetupSampler {
public:
  /// \p Once makes one set-up and returns its seconds.
  explicit SetupSampler(std::function<double()> Once) : Once(std::move(Once)) {
    for (unsigned I = 0; I < SetupsBefore; ++I)
      Times.push_back(this->Once());
    Last = Clock::now();
  }
  void tick() {
    if (since(Last) < SetupInterval)
      return;
    Times.push_back(Once());
    Last = Clock::now();
  }
  double seconds() const { return median(Times); }

private:
  std::function<double()> Once;
  std::vector<double> Times;
  Clock::time_point Last;
};

/// One set-up of a library workload: a fresh process of this harness
/// running the workload's set-up with --setup-only, timed from spawn to
/// exit (process start included).  A set-up of a few milliseconds reads
/// up to 60 % apart from one process to the next (memory layout), which
/// repetitions inside one process cannot average out.
double setupInFreshProcess(const Args &A) {
  std::string Seed = std::to_string(A.Seed);
  std::vector<std::string> Words = {"cai-perfbench", "--workload", A.Workload,
                                    "--seed", Seed, "--setup-only"};
  if (A.Smoke)
    Words.push_back("--smoke");
  std::vector<char *> Argv;
  for (std::string &W : Words)
    Argv.push_back(W.data());
  Argv.push_back(nullptr);
  auto T0 = Clock::now();
  pid_t Pid = -1;
  int Status = 0;
  // posix_spawn does not copy the harness's page tables, so the harness's
  // own size does not enter the time.
  if (::posix_spawn(&Pid, "/proc/self/exe", nullptr, nullptr, Argv.data(),
                    environ) != 0 ||
      ::waitpid(Pid, &Status, 0) != Pid || !WIFEXITED(Status) ||
      WEXITSTATUS(Status) != 0)
    throw std::runtime_error("set-up process failed");
  return since(T0);
}

//===-- e10-cold -----------------------------------------------------------===//

struct E10Job {
  unsigned Tier, Tracks, GenSeed;
};

struct E10Input {
  std::unique_ptr<TermContext> Ctx;
  Workload W;
};

WorkloadOptions e10Options(const E10Job &J) {
  WorkloadOptions O;
  O.Seed = J.GenSeed;
  O.AffineTracks = O.UFTracks = O.ReducedTracks = O.MixedTracks = J.Tracks;
  O.Branches = 1;
  O.NoiseVars = 1;
  return O;
}

E10Input makeE10Input(const E10Job &J) {
  E10Input In{std::make_unique<TermContext>(), {}};
  In.W = generateWorkload(*In.Ctx, e10Options(J));
  return In;
}

/// One job on its own TermContext; builds the (plain or timed) tree,
/// analyzes, and renders verdicts and stats as the output bytes.
JobOut runE10Job(E10Input &In, const E10Job &J, obs::MetricsRegistry &Reg,
                 Layers *L) {
  JobOut Out;
  Counts Before = Reg.counterValues();
  auto T0 = Clock::now();
  Tree T;
  buildE10(T, *In.Ctx, J.Tier, L);
  AnalysisResult AR = analyze(*T.Top, In.W.P, L);
  Out.Seconds = since(T0);
  Out.Count = counterDelta(Before, Reg.counterValues());
  addStats(Out.Count, AR.Stats);
  Out.Ok = AR.Converged && !AR.Cancelled;
  Out.Assertions = static_cast<unsigned>(AR.Assertions.size());
  Out.Verified = AR.numVerified();
  Out.Output = Out.Ok ? "converged:" : "not-converged:";
  for (const AssertionVerdict &V : AR.Assertions)
    Out.Output += V.Verified ? '1' : '0';
  return Out;
}

std::vector<E10Job> e10Jobs(const Args &A) {
  // A fixed grid: the cost of the logical k=3 rung over generator seeds is
  // heavy-tailed (0.66-6.4 s over seeds 10..29), which no affordable run
  // averages out, so the generator seeds are pinned and --seed only orders
  // the jobs each repetition runs.  See README.md.
  std::vector<E10Job> Jobs;
  unsigned Seeds = A.Smoke ? 20 : 7, MaxTracks = A.Smoke ? 1 : 3;
  for (unsigned S = 1; S <= Seeds; ++S)
    for (unsigned K = 1; K <= MaxTracks; ++K)
      for (unsigned Tier = 0; Tier < 5; ++Tier)
        Jobs.push_back({Tier, K, S});
  return Jobs;
}

/// The e10-cold set-up: generating the corpus.  The timed passes
/// regenerate each job's input just before the job, untimed, so that only
/// one job's TermContext is alive at a time.
std::vector<E10Input> e10Setup(const Args &A) {
  std::vector<E10Input> In;
  for (const E10Job &J : e10Jobs(A))
    In.push_back(makeE10Input(J));
  return In;
}

Report runE10(const Args &A) {
  std::vector<E10Job> Jobs = e10Jobs(A);
  Report R;
  SetupSampler Setup([&] { return setupInFreshProcess(A); });
  CpuPicker Cpu;

  { // Warm-up: fault in code and allocator arenas; not timed.
    obs::MetricsRegistry Reg;
    obs::MetricsRegistry::install(&Reg);
    E10Input In = makeE10Input({4, 1, 1});
    runE10Job(In, {4, 1, 1}, Reg, nullptr);
    obs::MetricsRegistry::install(nullptr);
  }

  auto Plain = runPasses(Jobs.size(), E10Passes, A.Seed, false,
                         [&](unsigned, size_t J, obs::MetricsRegistry &Reg) {
                           Setup.tick();
                           Cpu.tick();
                           E10Input In = makeE10Input(Jobs[J]);
                           return runE10Job(In, Jobs[J], Reg, nullptr);
                         });
  double PeakRss = peakRssMbSelf();
  checkRepeat(R, Plain, "e10-cold");

  // Reference: the generator's ground truth for each tier.
  Tally Tl;
  Tl.Jobs = Jobs.size();
  for (size_t J = 0; J < Jobs.size(); ++J) {
    Workload W = makeE10Input(Jobs[J]).W;
    std::string Expected = "converged:";
    for (size_t I = 0; I < W.Kinds.size(); ++I)
      Expected += expectedVerified(Jobs[J].Tier, W.Kinds[I]) ? '1' : '0';
    if (A.CorruptReference && J == 0)
      Expected.back() = Expected.back() == '1' ? '0' : '1';
    const JobOut &O = Plain[0][J];
    Tl.Ok += O.Ok;
    Tl.Verified += O.Verified;
    Tl.Assertions += O.Assertions;
    if (O.Output == Expected)
      ++Tl.Agree;
    else
      R.fail("e10-cold job " + std::to_string(J) + " (tier " +
             std::to_string(Jobs[J].Tier) + ", k=" +
             std::to_string(Jobs[J].Tracks) + ", seed " +
             std::to_string(Jobs[J].GenSeed) + "): got " + O.Output +
             ", expected " + Expected);
  }
  R.Attempted = Jobs.size();
  R.Failed = Jobs.size() - Tl.Ok;

  std::vector<double> Secs = minSeconds(Plain);
  if (!A.Trace) {
    addEndToEnd(R, Jobs.size() / sum(Secs), Secs, Tl, PeakRss,
                Setup.seconds());
    return R;
  }

  // Traced pass: one repetition with timed trees.
  std::vector<Layers> PerJob(Jobs.size());
  LayerTotals Totals;
  auto Traced = runPasses(
      Jobs.size(), OnePass, A.Seed, true,
      [&](unsigned, size_t J, obs::MetricsRegistry &Reg) {
        E10Input In = makeE10Input(Jobs[J]);
        return runE10Job(In, Jobs[J], Reg, &PerJob[J]);
      },
      [&](unsigned, obs::MetricsRegistry &Reg) { readHistograms(Totals, Reg); });
  checkFidelity(R, Plain, Traced);
  LayerTotals K3Totals;
  for (size_t J = 0; J < Jobs.size(); ++J) {
    Totals.add(PerJob[J]);
    Totals.addCounts(Traced[0][J].Count);
    if (Jobs[J].Tier == 4 && Jobs[J].Tracks == 3)
      K3Totals.add(PerJob[J]);
  }
  bool HasK3 = K3Totals.Sum.Analysis.Inclusive > 0;
  // One traced repetition against the median full untraced repetition.
  addPerLayer(R,
              medianFullPass(Plain, E10Passes.Min, sum) /
                  sum(passSeconds(Traced[0])),
              0, Totals, HasK3 ? K3Totals.Sum : Totals.Sum,
              HasK3 ? "e10-cold logical k=3 jobs" : "e10-cold", {});
  return R;
}

//===-- gen-poly-uf --------------------------------------------------------===//

const char *const PolyUF = "logical:poly,uf";
/// The polyhedra row cap of gen-poly-uf (the service's poly_max_rows).  At
/// the default cap (2048 rows) about one corpus in 25 holds a program that
/// takes 88 s (GenOptions seed 5442957793586357230: a 20-line loop), which
/// alone would exceed the 180 s a run may take; at 64 rows the slowest
/// program of 13 corpora took 3.8 s and seed 1's verdicts are unchanged.
/// See README.md, "Program defect found".
constexpr size_t GenPolyRows = 64;

service::JobSpec genSpec(uint64_t Seed, size_t I) {
  uint64_t X = Seed * 0x100000001b3ull + I;
  interp::GenOptions G;
  G.Seed = splitmix(X);
  G.MaxFnDepth = 3;
  service::JobSpec S;
  S.Id = I;
  S.ProgramText = interp::generateProgram(G);
  S.Opts.DomainSpec = PolyUF;
  S.Opts.PolyMaxRows = GenPolyRows;
  return S;
}

bool statusOk(service::JobStatus S) {
  return S == service::JobStatus::Verified ||
         S == service::JobStatus::AssertionsFailed;
}

/// The timed path: the service's isolated job runner, result bytes out.
/// \p Keep, when set, receives the job's result.
JobOut runGenJob(const service::JobSpec &Spec, obs::MetricsRegistry &Reg,
                 service::JobResult *Keep = nullptr) {
  JobOut Out;
  Counts Before = Reg.counterValues();
  auto T0 = Clock::now();
  service::JobResult JR =
      service::AnalysisScheduler::runJobIsolated(Spec, nullptr);
  std::string Line = service::resultToJsonLine(JR);
  Out.Seconds = since(T0);
  Out.Count = counterDelta(Before, Reg.counterValues());
  addStats(Out.Count, JR.Stats);
  Out.Output = std::move(Line);
  Out.Ok = statusOk(JR.Status);
  Out.Verified = JR.NumVerified;
  Out.Assertions = static_cast<unsigned>(JR.Assertions.size());
  if (Keep)
    *Keep = std::move(JR);
  return Out;
}

/// The same job rebuilt from the library's public pieces (parse, domain
/// tree, Analyzer::run, result line) so that the invariants are available
/// to the concrete oracle and the tree can be timed.  Its bytes must equal
/// runJobIsolated's.  Untraced, it also measures the job's peak RSS.  The
/// domain is logical:poly,uf or logical:affine,uf, from the spec.
struct Replay {
  JobOut Out;
  bool OracleOk = true;
  double ParseSeconds = 0;
  double PeakMb = 0; ///< Peak RSS while the job ran.
};

Replay replayJob(const service::JobSpec &Spec, obs::MetricsRegistry &Reg,
                    Layers *L, bool Oracle) {
  Replay G;
  // The row cap as runJobIsolated scopes it (a thread-local).
  size_t PrevRows = polyRowCap();
  if (Spec.Opts.PolyMaxRows != SIZE_MAX)
    setPolyRowCap(Spec.Opts.PolyMaxRows);
  struct RestoreRows {
    size_t Rows;
    ~RestoreRows() { setPolyRowCap(Rows); }
  } Restore{PrevRows};
  if (!L)
    resetPeakRss();
  Counts Before = Reg.counterValues();
  auto T0 = Clock::now();
  TermContext Ctx;
  for (const char *P : {"even", "odd", "positive", "negative"})
    Ctx.getPredicate(P, 1);
  Tree T;
  buildLogical(T, Ctx, Spec.Opts.DomainSpec == PolyUF, L);
  service::JobResult JR;
  JR.Id = Spec.Id;
  JR.Name = Spec.Name;
  JR.Fingerprint = service::fingerprintJob(Spec);
  JR.Domain = T.Top->name();
  auto P0 = Clock::now();
  std::string Error;
  std::optional<Program> P = parseProgram(Ctx, Spec.ProgramText, &Error);
  G.ParseSeconds = since(P0);
  AnalysisResult AR;
  if (!P) {
    JR.Status = service::JobStatus::ParseError;
    JR.Error = Error;
  } else {
    AR = analyze(*T.Top, *P, L);
    JR.Assertions = AR.Assertions;
    JR.NumVerified = AR.numVerified();
    JR.Stats = AR.Stats;
    if (!AR.Converged) {
      JR.Status = service::JobStatus::NotConverged;
      JR.Error = "fixpoint did not converge (MaxUpdatesPerNode exceeded)";
    } else {
      JR.Status = JR.NumVerified == JR.Assertions.size()
                      ? service::JobStatus::Verified
                      : service::JobStatus::AssertionsFailed;
    }
  }
  G.Out.Output = service::resultToJsonLine(JR);
  G.Out.Seconds = since(T0);
  G.Out.Count = counterDelta(Before, Reg.counterValues());
  addStats(G.Out.Count, JR.Stats);
  G.Out.Ok = statusOk(JR.Status);
  G.PeakMb = peakRssMbSelf();
  if (Oracle && P && G.Out.Ok) {
    interp::OracleOptions OO;
    OO.Seed = Spec.Id + 1;
    interp::OracleReport Rep = interp::checkSoundness(Ctx, *P, AR, *T.Top, OO);
    G.OracleOk = Rep.ok();
    if (!Rep.ok())
      std::cerr << "perfbench: gen-poly-uf job " << Spec.Id << ": "
                << interp::describe(Ctx, Rep.Violations[0]) << "\n";
  }
  return G;
}

/// The gen-poly-uf set-up: generating the program texts.
std::vector<service::JobSpec> genSetup(const Args &A) {
  std::vector<service::JobSpec> Specs;
  for (size_t J = 0, N = A.Smoke ? 100 : 1000; J < N; ++J)
    Specs.push_back(genSpec(A.Seed, J));
  return Specs;
}

Report runGen(const Args &A) {
  std::vector<service::JobSpec> Specs = genSetup(A);
  size_t N = Specs.size();
  Report R;
  SetupSampler Setup([&] { return setupInFreshProcess(A); });
  CpuPicker Cpu;

  { // Warm-up on a program outside the corpus; not timed.
    obs::MetricsRegistry Reg;
    obs::MetricsRegistry::install(&Reg);
    runGenJob(genSpec(A.Seed + 1, N), Reg);
    obs::MetricsRegistry::install(nullptr);
  }

  auto Plain = runPasses(N, GenPasses, A.Seed, false,
                         [&](unsigned, size_t J, obs::MetricsRegistry &Reg) {
                           Setup.tick();
                           Cpu.tick();
                           return runGenJob(Specs[J], Reg);
                         });
  checkRepeat(R, Plain, "gen-poly-uf");

  // Reference pass: rebuilt pipeline + oracle, one repetition; with
  // --trace 1 it is also the traced pass.
  std::vector<Layers> PerJob(N);
  std::vector<Replay> Replays(N);
  LayerTotals Totals;
  auto Replayed = runPasses(
      N, OnePass, A.Seed, A.Trace,
      [&](unsigned, size_t J, obs::MetricsRegistry &Reg) {
        Replays[J] = replayJob(Specs[J], Reg, A.Trace ? &PerJob[J] : nullptr,
                               true);
        return Replays[J].Out;
      },
      [&](unsigned, obs::MetricsRegistry &Reg) { readHistograms(Totals, Reg); });

  Tally Tl;
  Tl.Jobs = N;
  std::vector<double> PeakMb;
  for (size_t J = 0; J < N; ++J) {
    const JobOut &O = Plain[0][J];
    PeakMb.push_back(Replays[J].PeakMb);
    std::string Ref = Replays[J].Out.Output;
    if (A.CorruptReference && J == 0)
      Ref += " ";
    Tl.Ok += O.Ok;
    Tl.Verified += O.Verified;
    Tl.Assertions += O.Assertions;
    bool Match = O.Output == Ref && Replays[J].OracleOk;
    Tl.Agree += Match;
    if (!Match)
      R.fail("gen-poly-uf job " + std::to_string(J) +
             (Replays[J].OracleOk ? ": result bytes differ from the rebuilt "
                                    "pipeline"
                                  : ": a concrete trace refutes an invariant"));
  }
  R.Attempted = N;
  R.Failed = N - Tl.Ok;

  std::vector<double> Secs = minSeconds(Plain);
  if (!A.Trace) {
    // Geometric-mean rate: one program of the corpus can cost 10^4 times
    // the median (README.md), so an arithmetic total would follow that
    // program.  For the same reason the peak RSS is the p90 over jobs of
    // the per-job peak, not the corpus maximum.
    addEndToEnd(R, geoRate(Secs), Secs, Tl, percentile(PeakMb, 0.9),
                Setup.seconds());
    return R;
  }

  checkFidelity(R, Plain, Replayed);
  double Parse = 0;
  for (size_t J = 0; J < N; ++J) {
    Totals.add(PerJob[J]);
    Totals.addCounts(Replayed[0][J].Count);
    Parse += Replays[J].ParseSeconds;
  }
  addPerLayer(R,
              geoRate(passSeconds(Replayed[0])) /
                  medianFullPass(Plain, GenPasses.Min, geoRate),
              Parse, Totals, Totals.Sum, "gen-poly-uf", {});
  return R;
}

//===-- serve-mixed --------------------------------------------------------===//

const char *const ServeDomain = "logical:affine,uf";

enum class ReqKind { Fresh, Hit, Edit };

struct ServeReq {
  ReqKind Kind;
  std::string Line;    ///< The request as sent.
  std::string Program; ///< Its program text (the reference key).
};

/// The seeded request stream: 20% fresh programs (each with a program_id,
/// so the service retains a snapshot), 60% repeats of an earlier request,
/// 20% analyze_edit requests appending one statement to an earlier fresh
/// program.  With 60% hits the pooled p50 lies well inside the hits (their
/// 83rd percentile) and the p90 well inside the analyses (the 75th
/// percentile of fresh and edit requests); neither sits on the boundary
/// between the two, where a percentile jumps from run to run.
std::vector<ServeReq> serveStream(uint64_t Seed, size_t N) {
  uint64_t X = Seed ^ 0x5e77e5eedull;
  std::vector<ServeReq> Out;
  std::vector<size_t> FreshIdx, Analyzed;
  std::vector<unsigned> EditsOf;
  for (size_t I = 0; I < N; ++I) {
    unsigned Pick = static_cast<unsigned>(splitmix(X) % 100);
    ReqKind K = FreshIdx.empty() || Pick < 20 ? ReqKind::Fresh
                : Pick < 80                   ? ReqKind::Hit
                                              : ReqKind::Edit;
    service::Json J = service::Json::object();
    J.set("id", service::Json::integer(static_cast<int64_t>(I)));
    std::string Text;
    if (K == ReqKind::Fresh) {
      interp::GenOptions G;
      G.Seed = splitmix(X);
      G.MaxFnDepth = 3;
      Text = interp::generateProgram(G);
      J.set("program_id", service::Json::str("p" + std::to_string(FreshIdx.size())));
      FreshIdx.push_back(I);
      EditsOf.push_back(0);
    } else if (K == ReqKind::Hit) {
      Text = Out[Analyzed[splitmix(X) % Analyzed.size()]].Program;
    } else {
      size_t P = splitmix(X) % FreshIdx.size();
      Text = Out[FreshIdx[P]].Program + "a := a + " +
             std::to_string(++EditsOf[P]) + ";\n";
      J.set("cmd", service::Json::str("analyze_edit"));
      J.set("program_id", service::Json::str("p" + std::to_string(P)));
    }
    J.set("program", service::Json::str(Text));
    J.set("domain", service::Json::str(ServeDomain));
    if (K != ReqKind::Hit)
      Analyzed.push_back(I);
    Out.push_back({K, J.dump(), std::move(Text)});
  }
  return Out;
}

std::string normalizeCached(std::string Line) {
  const std::string Hit = "\"cached\":true";
  size_t At = Line.find(Hit);
  if (At != std::string::npos)
    Line.replace(At, Hit.size(), "\"cached\":false");
  return Line;
}

Report runServe(const Args &A) {
  size_t N = A.Smoke ? 700 : 10000;
  Report R;
  std::vector<ServeReq> Stream;
  // The set-up: generating the stream, then spawning a server through its
  // first health reply.  Set-ups made only for setup_s stop their server
  // again at once, untimed.
  auto setUp = [&](double *Seconds) {
    auto T0 = Clock::now();
    Stream = serveStream(A.Seed, N);
    auto S = std::make_unique<ServeProcess>();
    std::string Error, Reply;
    if (!S->start(A.Serve, &Error) ||
        !S->request("{\"cmd\":\"health\"}", &Reply) ||
        Reply.find("\"health\":\"ok\"") == std::string::npos)
      throw std::runtime_error("cannot start " + A.Serve + ": " +
                               (Error.empty() ? "no health reply" : Error));
    *Seconds = since(T0);
    return S;
  };
  SetupSampler Setup([&] {
    double Seconds = 0;
    setUp(&Seconds);
    return Seconds;
  });
  // The client and every thread of the serving cai-serve share the
  // fastest vCPU, re-picked every half second: all hand-offs of a round
  // trip are then switches on one vCPU, none waits for an idle vCPU to
  // wake.
  CpuPicker Cpu;

  // One closed-loop stream per server, one server after the other.
  std::vector<std::vector<double>> Lat(ServeReps, std::vector<double>(N));
  std::vector<std::vector<std::string>> Replies(ServeReps,
                                                std::vector<std::string>(N));
  std::vector<double> Rss;
  std::string StatsLine, TelemetryLine;
  for (unsigned I = 0; I < ServeReps; ++I) {
    double Unused;
    std::unique_ptr<ServeProcess> Server = setUp(&Unused);
    ServeProcess &S = *Server;
    for (size_t J = 0; J < N; ++J) {
      Setup.tick();
      if (Cpu.due() || J == 0)
        S.pinTo(Cpu.pick());
      auto T0 = Clock::now();
      bool Got = S.request(Stream[J].Line, &Replies[I][J]);
      Lat[I][J] = since(T0);
      if (!Got)
        Replies[I][J].clear();
    }
    Rss.push_back(S.peakRssMb());
    if (I + 1 == ServeReps && A.Trace) {
      S.request("{\"cmd\":\"stats\"}", &StatsLine);
      S.request("{\"cmd\":\"telemetry\"}", &TelemetryLine);
    }
    S.stop();
  }

  // Reference: a from-scratch runJobIsolated of every distinct program
  // (analysis is a pure function of text and options), one pass.
  std::vector<service::JobSpec> Specs;
  std::map<std::string, size_t> SpecOf;
  std::vector<size_t> ProgOf(N);
  for (size_t J = 0; J < N; ++J) {
    auto [It, New] = SpecOf.emplace(Stream[J].Program, Specs.size());
    if (New) {
      service::JobSpec Spec;
      Spec.Id = Specs.size();
      Spec.ProgramText = Stream[J].Program;
      Spec.Opts.DomainSpec = ServeDomain;
      Specs.push_back(std::move(Spec));
    }
    ProgOf[J] = It->second;
  }
  std::vector<service::JobResult> RefJR(Specs.size());
  auto RefPass = runPasses(Specs.size(), OnePass, A.Seed, false,
                           [&](unsigned, size_t K, obs::MetricsRegistry &Reg) {
                             return runGenJob(Specs[K], Reg, &RefJR[K]);
                           });

  Tally Tl;
  Tl.Jobs = N;
  for (size_t J = 0; J < N; ++J) {
    service::JobResult Expected = RefJR[ProgOf[J]];
    Expected.Id = J;
    std::string ExpectedLine = service::resultToJsonLine(Expected);
    if (A.CorruptReference && J == 0)
      ExpectedLine += " ";
    bool AllOk = statusOk(Expected.Status), AllMatch = true;
    for (unsigned I = 0; I < ServeReps; ++I) {
      std::optional<service::Json> Reply = service::Json::parse(Replies[I][J]);
      const service::Json *St = Reply ? Reply->get("status") : nullptr;
      AllOk &= St && St->isString() &&
               (St->asString() == "verified" ||
                St->asString() == "assertions-failed");
      AllMatch &= normalizeCached(Replies[I][J]) == ExpectedLine;
    }
    Tl.Ok += AllOk;
    Tl.Agree += AllMatch;
    if (!AllMatch)
      R.fail("serve-mixed request " + std::to_string(J) +
             ": reply differs from the from-scratch reference: " +
             Replies[0][J]);
    // Precision over the fresh programs: repeats and edits would weight a
    // few programs many times.
    if (Stream[J].Kind == ReqKind::Fresh) {
      Tl.Verified += Expected.NumVerified;
      Tl.Assertions += Expected.Assertions.size();
    }
  }
  R.Attempted = N;
  R.Failed = N - Tl.Ok;

  std::vector<double> Min(N), ByKind[3];
  for (size_t J = 0; J < N; ++J) {
    Min[J] = Lat[0][J];
    for (unsigned I = 1; I < ServeReps; ++I)
      Min[J] = std::min(Min[J], Lat[I][J]);
    ByKind[static_cast<int>(Stream[J].Kind)].push_back(Min[J]);
  }
  const char *KindName[] = {"fresh", "hit", "edit"};
  for (int K = 0; K < 3; ++K)
    if (!ByKind[K].empty())
      std::cerr << "perfbench: serve-mixed " << KindName[K] << " requests: "
                << ByKind[K].size() << ", p50 "
                << percentile(ByKind[K], 0.5) * 1000 << " ms, p90 "
                << percentile(ByKind[K], 0.9) * 1000 << " ms\n";

  if (!A.Trace) {
    addEndToEnd(R, N / sum(Min), Min, Tl, median(Rss), Setup.seconds());
    return R;
  }

  // Per-layer numbers: the analyses behind the stream (every distinct
  // program, from scratch) rebuilt in a traced pass, and the service's own
  // stats reply.  cai-serve's telemetry phase times go to stderr only:
  // they are histogram-bucketed and absent on the library workloads.
  std::vector<Layers> PerJob(Specs.size());
  std::vector<double> Parse(Specs.size());
  LayerTotals Totals;
  auto Traced = runPasses(
      Specs.size(), OnePass, A.Seed, true,
      [&](unsigned, size_t K, obs::MetricsRegistry &Reg) {
        Replay G = replayJob(Specs[K], Reg, &PerJob[K], false);
        Parse[K] = G.ParseSeconds;
        return G.Out;
      },
      [&](unsigned, obs::MetricsRegistry &Reg) { readHistograms(Totals, Reg); });
  checkFidelity(R, RefPass, Traced);
  for (size_t K = 0; K < Specs.size(); ++K) {
    Totals.add(PerJob[K]);
    Totals.addCounts(Traced[0][K].Count);
  }

  std::optional<service::Json> Tel = service::Json::parse(TelemetryLine);
  std::optional<service::Json> St = service::Json::parse(StatsLine);
  if (!Tel || !St) {
    R.fail("cai-serve stats/telemetry replies did not parse");
    return R;
  }
  auto Num = [](const service::Json *Obj,
                std::initializer_list<const char *> Path) -> double {
    for (const char *Key : Path)
      Obj = Obj ? Obj->get(Key) : nullptr;
    return Obj ? Obj->asDouble() : 0;
  };
  const service::Json *T = &*Tel, *S = &*St;
  std::cerr << "perfbench: serve-mixed telemetry p50: queue wait "
            << Num(T, {"phases", "queue_us", "p50_us"}) << " us, parse "
            << Num(T, {"phases", "parse_us", "p50_us"}) << " us, analyze "
            << Num(T, {"phases", "analyze_us", "p50_us"}) << " us, cache write "
            << Num(T, {"phases", "cache_write_us", "p50_us"}) << " us\n";
  ServiceNums Svc;
  double Hits = Num(S, {"cache", "hits"}), Misses = Num(S, {"cache", "misses"});
  Svc.ResultCacheHitRatio = Hits + Misses > 0 ? Hits / (Hits + Misses) : 0;
  double SHits = Num(S, {"snapshot_cache", "hits"}),
         SMiss = Num(S, {"snapshot_cache", "misses"});
  Svc.SnapshotReuseRatio = SHits + SMiss > 0 ? SHits / (SHits + SMiss) : 0;
  Svc.EditFallbacks = Num(S, {"incremental", "fallbacks"});
  addPerLayer(R, sum(passSeconds(RefPass[0])) / sum(passSeconds(Traced[0])),
              sum(Parse), Totals, Totals.Sum, "serve-mixed analyses", Svc);
  return R;
}

} // namespace

int main(int argc, char **argv) try {
  Args A;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto Next = [&]() -> std::string {
      if (I + 1 >= argc)
        throw std::runtime_error(Arg + " needs a value");
      return argv[++I];
    };
    if (Arg == "--workload")
      A.Workload = Next();
    else if (Arg == "--seed")
      A.Seed = std::stoull(Next());
    else if (Arg == "--seconds")
      Next(); // Accepted; every run does a fixed amount of work.
    else if (Arg == "--trace")
      A.Trace = Next() != "0";
    else if (Arg == "--serve")
      A.Serve = Next();
    else if (Arg == "--smoke")
      A.Smoke = true;
    else if (Arg == "--corrupt-reference")
      A.CorruptReference = true;
    else if (Arg == "--setup-only")
      A.SetupOnly = true;
    else {
      std::cerr << "perfbench: unknown argument " << Arg << "\n";
      return 2;
    }
  }
  if (A.SetupOnly) {
    if (A.Workload == "e10-cold")
      e10Setup(A);
    else if (A.Workload == "gen-poly-uf")
      genSetup(A);
    return 0;
  }
  Report R;
  if (A.Workload == "e10-cold")
    R = runE10(A);
  else if (A.Workload == "gen-poly-uf")
    R = runGen(A);
  else if (A.Workload == "serve-mixed" && !A.Serve.empty())
    R = runServe(A);
  else {
    std::cerr << "perfbench: unknown workload '" << A.Workload << "'\n";
    return 2;
  }
  std::cout << R.json() << std::endl;
  return R.Correct ? 0 : 1;
} catch (const std::exception &E) {
  std::cerr << "perfbench: " << E.what() << "\n";
  return 2;
}
