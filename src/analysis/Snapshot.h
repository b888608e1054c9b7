//===- analysis/Snapshot.h - Fixpoint snapshots for incremental runs -*- C++ -*-===//
///
/// \file
/// A FixpointSnapshot is the compact record an Analyzer run leaves behind
/// so that a later run over an edited version of the same program can skip
/// re-iterating the parts that did not change.  Granularity is the
/// top-level WTO element (a single node or an outermost component): for
/// each element the snapshot stores its CFG fingerprints
/// (ir/CfgFingerprint.h), the stabilized pre-narrowing invariant of every
/// node, and the fixpoint counters its stage contributed.  Nothing of the
/// lattice's memo caches is recorded: a replaying run starts them empty,
/// like any job, and their hit counts are outside the contract below.
///
/// All states are stored in the structural text codec (term/StateCodec.h),
/// never as live terms: a snapshot outlives the TermContext that produced
/// it and is decoded into whatever context the next run owns.  Decoding is
/// fallible by design (an edit can remove a symbol); any failure simply
/// marks the element dirty and the engine re-iterates it from scratch.
///
/// The reuse contract is byte-exactness, not approximation: replaying a
/// snapshot must leave the engine in precisely the state a from-scratch
/// run reaches at the same point — identical invariants, identical
/// serialized counters, identical verdicts.  The differential `incremental`
/// test tier enforces this program-by-program.
///
//===----------------------------------------------------------------------===//

#ifndef CAI_ANALYSIS_SNAPSHOT_H
#define CAI_ANALYSIS_SNAPSHOT_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace cai {

/// Everything one top-level WTO element contributes to a snapshot.
struct ComponentRecord {
  /// Fingerprints of the element in the program the snapshot was taken
  /// from (see ir/CfgFingerprint.h).  A later run reuses elements exactly
  /// on the longest prefix whose chained fingerprints still match.
  uint64_t LocalFP = 0;
  uint64_t ChainFP = 0;

  /// Stabilized (pre-narrowing) invariant of each element node, codec
  /// encoded, indexed by the node's offset within the element in WTO
  /// order.
  std::vector<std::string> FinalStates;

  /// Counter deltas the element's ascending stage contributed; replayed
  /// verbatim on reuse so serialized stats stay byte-identical.
  unsigned long Joins = 0;
  unsigned long Widenings = 0;
  unsigned long Transfers = 0;
  unsigned long EdgeEvals = 0;
  unsigned long EntailmentChecks = 0;
  unsigned long TotalNodeUpdates = 0;
  /// Maximum per-node update count over the element's nodes at stage end
  /// (an absolute value, not a delta: a node's count is frozen once its
  /// element's stage completes).
  unsigned MaxUpdatesAbs = 0;
  /// The fresh-variable counter at stage end; reuse fast-forwards the
  /// context so live work downstream draws the same names a from-scratch
  /// run would.
  uint64_t FreshCounterAfter = 0;
  /// True when the stage hit AnalyzerOptions::MaxUpdatesPerNode; replayed
  /// into Converged on reuse.
  bool CapHit = false;
};

/// The snapshot of one complete analysis run.
struct FixpointSnapshot {
  std::vector<ComponentRecord> Components;
  /// Set only when the run recorded every element without being
  /// cancelled.  Incomplete snapshots are never reused.
  bool Complete = false;

  /// Approximate retained heap bytes, for cache budgeting.
  size_t byteSize() const;
};

} // namespace cai

#endif // CAI_ANALYSIS_SNAPSHOT_H
