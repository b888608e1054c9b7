//===- analysis/Analyzer.h - The abstract interpreter -----------*- C++ -*-===//
///
/// \file
/// The forward abstract interpreter of Section 4: a worklist fixpoint over
/// a flowchart program computing one lattice element per node, with the
/// transfer functions of Figure 5 (join at confluence, strongest
/// postcondition via existential quantification at assignments, meet with
/// the branch fact at conditionals), and assertion checking against the
/// stabilized invariants.
///
/// The fixpoint is element-staged over Bourdoncle's weak topological order
/// (ir/WTO.h): each top-level WTO element (a single node or an outermost
/// component) is stabilized to completion with a worklist confined to its
/// internal edges, then a deterministic boundary sweep propagates its
/// final states across outgoing cross-element edges.  WTO guarantees
/// cross-element edges only ever flow forward among reachable nodes, so an
/// element's inputs are complete before its stage starts.  Pending nodes
/// within a stage are processed in WTO position order, which stabilizes
/// inner loops before their enclosing ones, and delayed widening is
/// applied only at WTO component heads (every CFG cycle contains one, so
/// termination is preserved while widening at strictly fewer points than
/// the historical any-join-point rule).  Lattice operations and edge
/// transfers are memoized across iterations -- see AnalyzerOptions::Memoize.
///
/// Staging is what makes the warm edit path possible: an element's final
/// states are a pure function of its structure and its upstream elements'
/// final states, so a run can record them per element
/// (analysis/Snapshot.h) and a later run over an edited program can replay
/// every element on the unchanged prefix instead of re-iterating it --
/// bit-identically, by construction.
///
//===----------------------------------------------------------------------===//

#ifndef CAI_ANALYSIS_ANALYZER_H
#define CAI_ANALYSIS_ANALYZER_H

#include "ir/Program.h"
#include "theory/LogicalLattice.h"

#include <atomic>
#include <chrono>

namespace cai {

struct FixpointSnapshot;

/// Tuning knobs for one analysis run.
struct AnalyzerOptions {
  /// Joins tolerated at a join point before switching to widening.
  unsigned WideningDelay = 4;
  /// Hard cap on state updates per node (a safety net: exceeding it aborts
  /// with Converged = false rather than looping).
  unsigned MaxUpdatesPerNode = 64;
  /// Use semantic (entailment-based) convergence checks in addition to the
  /// syntactic one; costs entailment queries, detects stabilization that
  /// mere syntax misses.
  bool SemanticConvergence = true;
  /// Maximum descending (narrowing) passes after the widened fixpoint:
  /// each pass recomputes every node's input from the stabilized states
  /// and meets it with the current state, recovering bounds that widening
  /// discarded (e.g. the exit value of a counted loop).  Sound for any
  /// count; refinements need one pass per node on the chain from the
  /// refined loop head, and the loop stops early once stable.
  unsigned NarrowingPasses = 3;
  /// Memoize lattice operations (join, entailment, unsat, quantification
  /// and implied variable equalities, keyed on canonical conjunction
  /// fingerprints) across fixpoint iterations.  Analysis results are
  /// bit-for-bit identical with memoization on or off (the
  /// cache-equivalence test enforces this); off exists for that test and
  /// for measuring the speedup.
  bool Memoize = true;
  /// Cooperative cancellation: when non-null and set, the run stops at its
  /// next step boundary or cancel point inside a lattice operation
  /// (support/Cancel.h) and returns with Cancelled = true (Converged =
  /// false, every assertion unverified).  The analysis service points
  /// every worker's jobs at a shared shutdown flag.
  const std::atomic<bool> *CancelFlag = nullptr;
  /// Cooperative deadline: a non-epoch value makes the run check the
  /// clock at each step boundary and cancel point and cancel the run once
  /// the deadline passes (same reporting as CancelFlag).  Drives the per-job
  /// timeout of the service and `cai-analyze --timeout-ms`.
  std::chrono::steady_clock::time_point Deadline{};
  /// Snapshot of a previous run over an earlier version of this program
  /// (same lattice, same options).  Elements on the longest prefix whose
  /// chained CFG fingerprints still match are replayed instead of
  /// re-iterated; everything downstream runs live.  The result is
  /// bit-identical to a from-scratch run either way.
  const FixpointSnapshot *SnapshotIn = nullptr;
  /// When non-null, the run records a snapshot here for future
  /// incremental runs (elements replayed from SnapshotIn are carried
  /// over).  Recording never changes the result or its serialized stats.
  FixpointSnapshot *SnapshotOut = nullptr;
};

/// Counters the benchmarks report (Theorem 6 measures MaxNodeUpdates).
struct AnalyzerStats {
  unsigned long Joins = 0;
  unsigned long Widenings = 0;
  unsigned long Transfers = 0;
  unsigned long EntailmentChecks = 0;
  /// Edge transfer-function evaluations requested by the fixpoint engine.
  unsigned long EdgeEvals = 0;
  /// Always 0: the per-run transfer cache it counted is gone.  The field
  /// stays because the persist record carries it (an unchanged record
  /// format keeps existing logs readable) and the repo benchmark reads it.
  unsigned long TransferCacheHits = 0;
  /// Lattice-operation memo-cache hits/misses over the whole lattice tree
  /// (products include their components), delta over this run.
  unsigned long CacheHits = 0;
  unsigned long CacheMisses = 0;
  /// Nelson-Oppen equality-propagation rounds performed by product
  /// lattices during this run.
  unsigned long SaturationRounds = 0;
  /// Number of WTO components (loops) in the analyzed CFG.
  unsigned WtoComponents = 0;
  unsigned MaxNodeUpdates = 0;
  unsigned TotalNodeUpdates = 0;
  /// Top-level WTO elements replayed from AnalyzerOptions::SnapshotIn
  /// versus stabilized live this run.  Reused + Recomputed = number of
  /// top-level elements (when the run completes).
  unsigned ComponentsReused = 0;
  unsigned ComponentsRecomputed = 0;

  /// Fraction of memoizable lattice queries answered from cache.
  double cacheHitRate() const {
    unsigned long Total = CacheHits + CacheMisses;
    return Total == 0 ? 0.0 : static_cast<double>(CacheHits) / Total;
  }
};

/// Verdict for one assertion.
struct AssertionVerdict {
  std::string Label;
  bool Verified = false;
};

/// Everything a run produces.
struct AnalysisResult {
  std::vector<Conjunction> Invariants; ///< Per node.
  std::vector<AssertionVerdict> Assertions;
  AnalyzerStats Stats;
  bool Converged = true;
  /// True when the run was stopped by AnalyzerOptions::CancelFlag or
  /// Deadline before stabilizing.  Implies Converged == false; the
  /// invariants computed so far under-approximate and must not be trusted.
  bool Cancelled = false;

  unsigned numVerified() const {
    unsigned N = 0;
    for (const AssertionVerdict &V : Assertions)
      N += V.Verified;
    return N;
  }
};

/// The abstract interpreter; one instance per lattice, reusable across
/// programs.
class Analyzer {
public:
  explicit Analyzer(const LogicalLattice &Lattice, AnalyzerOptions Opts = {})
      : Lattice(Lattice), Opts(Opts) {}

  AnalysisResult run(const Program &P) const;

  /// The strongest-postcondition transfer of one action from \p In.  A
  /// pure function of (action, input) -- counting happens at the
  /// fixpoint-engine request level so that memoization cannot change any
  /// reported statistic.
  Conjunction transfer(const Action &Act, const Conjunction &In) const;

private:
  /// True if every function symbol of \p T is in the lattice's signature,
  /// i.e. the assignment expression can be modeled precisely; otherwise
  /// the assignment degrades to a havoc (E1' := true in Figure 5(b)).
  bool expressible(Term T) const;

  const LogicalLattice &Lattice;
  AnalyzerOptions Opts;
};

} // namespace cai

#endif // CAI_ANALYSIS_ANALYZER_H
