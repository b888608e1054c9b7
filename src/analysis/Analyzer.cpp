//===- analysis/Analyzer.cpp - The abstract interpreter --------------------===//

#include "analysis/Analyzer.h"

#include "analysis/Snapshot.h"
#include "analysis/Worklist.h"
#include "ir/CfgFingerprint.h"
#include "ir/WTO.h"
#include "obs/Metrics.h"
#include "obs/Provenance.h"
#include "obs/Trace.h"
#include "support/Cancel.h"
#include "term/StateCodec.h"

using namespace cai;

bool Analyzer::expressible(Term T) const {
  switch (T->kind()) {
  case TermKind::Variable:
    return true;
  case TermKind::Number:
    return Lattice.ownsNumerals();
  case TermKind::App:
    break;
  }
  const TermContext &Ctx = Lattice.context();
  bool Owned = Ctx.info(T->symbol()).Arithmetic
                   ? Lattice.ownsNumerals()
                   : Lattice.ownsFunction(T->symbol());
  if (!Owned)
    return false;
  for (Term Arg : T->args())
    if (!expressible(Arg))
      return false;
  return true;
}

Conjunction Analyzer::transfer(const Action &Act, const Conjunction &In) const {
  if (In.isBottom())
    return In;
  TermContext &Ctx = Lattice.context();

  switch (Act.Kind) {
  case ActionKind::Skip:
    return In;

  case ActionKind::Assume: {
    if (Act.Cond.isBottom())
      return Conjunction::bottom();
    if (Act.Cond.isTop())
      return In;
    // Keep only facts the lattice can express; foreign predicates become
    // "true" exactly as Figure 5(c) prescribes.
    Conjunction Usable;
    for (const Atom &A : Act.Cond.atoms()) {
      bool Known = A.predicate() == Ctx.eqSymbol() ||
                   Lattice.ownsPredicate(A.predicate());
      bool AllArgs = true;
      for (Term Arg : A.args())
        AllArgs &= expressible(Arg);
      if (Known && AllArgs)
        Usable.add(A);
    }
    return Lattice.meet(In, Usable);
  }

  case ActionKind::Assign:
  case ActionKind::Havoc: {
    // Figure 5(b): rename x to a shadow x0 in E, conjoin x = e[x0/x], then
    // existentially quantify x0.  The paper degrades out-of-signature
    // expressions to havoc (E1' := true); our domains instead treat
    // foreign subterms as opaque indeterminates -- every operation
    // rebuilds its result from its internal representation, so the
    // conjoined fact is over-approximated soundly (and, for the
    // stand-alone baselines, exactly as the published single-domain
    // analyses would: GVN keeps numerals as constants, Karr keeps F(y) as
    // an anonymous cell).
    //
    // The shadow variable is deterministic per assigned variable ('$'
    // names are reserved for the library, so it cannot collide with a
    // program variable, and quantification guarantees it never escapes
    // the result).  A fresh variable per call would defeat quantification
    // memoization: identical (action, input) pairs must build identical
    // intermediate conjunctions.
    Term X = Act.Var;
    Term X0 = Ctx.mkVar("$x0$" + X->varName());
    Substitution Rename;
    Rename.emplace(X, X0);
    Conjunction E = In.substitute(Ctx, Rename);
    if (Act.Kind == ActionKind::Assign) {
      Term Value = Ctx.substitute(Act.Value, Rename);
      E.add(Atom::mkEq(Ctx, X, Value));
    }
    return Lattice.existQuantCached(E, {X0});
  }
  }
  assert(false && "unknown action kind");
  return In;
}

AnalysisResult Analyzer::run(const Program &P) const {
  CAI_TRACE_SPAN_ARGS("analyzer.run", "analyzer",
                      {"domain", Lattice.name()},
                      {"nodes", std::to_string(P.numNodes())});
  CAI_METRIC_TIME("analyzer.run_us");
  AnalysisResult Result;
  Result.Invariants.assign(P.numNodes(), Conjunction::bottom());
  if (P.numNodes() == 0)
    return Result;
  Result.Invariants[P.entry()] = Conjunction::top();

  Lattice.setMemoization(Opts.Memoize);
  LatticeStats StatsBefore = Lattice.statsSnapshot();

  WTO Wto(P);
  Result.Stats.WtoComponents = Wto.numComponents();
  TermContext &Ctx = Lattice.context();
  const std::vector<NodeId> &Order = Wto.order();
  const auto &Succs = P.successors();

  // Fingerprints are needed both to find the reusable prefix of an
  // incoming snapshot and to stamp an outgoing one.
  const FixpointSnapshot *SnapIn =
      Opts.SnapshotIn && Opts.SnapshotIn->Complete ? Opts.SnapshotIn : nullptr;
  ComponentFingerprints FP;
  if (SnapIn || Opts.SnapshotOut)
    FP = fingerprintComponents(Ctx, P, Wto);
  // Elements 0..Reusable-1 replay from the snapshot: the chained
  // fingerprint equality proves their structure and everything upstream
  // is unchanged, so their stabilized states are already known.
  size_t Reusable = 0;
  if (SnapIn) {
    size_t Limit = std::min(FP.numElements(), SnapIn->Components.size());
    while (Reusable < Limit &&
           SnapIn->Components[Reusable].ChainFP == FP.Chain[Reusable])
      ++Reusable;
  }
  if (Opts.SnapshotOut) {
    Opts.SnapshotOut->Components.clear();
    Opts.SnapshotOut->Complete = false;
  }

  std::vector<unsigned> Updates(P.numNodes(), 0);
  // Nodes whose state changed since their element's stage started --
  // i.e. received a cross-element contribution from an upstream sweep.
  // Each element's stage begins from its marked nodes.
  std::vector<bool> Marked(P.numNodes(), false);
  Marked[P.entry()] = true;

  // Evaluates one edge's transfer function and counts it.
  auto Transfer = [&](const Action &Act, const Conjunction &In) {
    CAI_TRACE_SPAN("edge.transfer", "transfer");
    ++Result.Stats.EdgeEvals;
    if (!In.isBottom() &&
        (Act.Kind == ActionKind::Assign || Act.Kind == ActionKind::Havoc))
      ++Result.Stats.Transfers;
    return transfer(Act, In);
  };

  // Cooperative cancellation: checked at step boundaries, and inside
  // lattice operations at the cancel points the scope reaches
  // (support/Cancel.h), which unwind a step to ApplyEdge, the narrowing
  // passes or the assertion checks.  The clock read costs ~20ns against
  // step costs in the microseconds.
  CancelScope Cancel(Opts.CancelFlag, Opts.Deadline);

  // Propagates one edge from \p State into its target; returns true when
  // the target's state changed.  Shared verbatim between element stages
  // and boundary sweeps so the two phases cannot diverge in join/widen
  // policy.  During a stage, StageCapPtr records update-cap hits for the
  // element's snapshot record.
  bool *StageCapPtr = nullptr;
  auto Propagate = [&](size_t EdgeIdx, const Conjunction &State) {
    const Edge &E = P.edges()[EdgeIdx];
    Conjunction Out = Transfer(E.Act, State);
    Conjunction &Target = Result.Invariants[E.To];

    Conjunction Next;
    if (Target.isBottom()) {
      if (Out.isBottom())
        return false;
      Next = std::move(Out);
    } else if (Out.isBottom()) {
      return false; // Nothing new flows in.
    } else if (Opts.SemanticConvergence &&
               Lattice.entailsAllCached(Out, Target)) {
      // Fast path: the incoming state is already subsumed -- entailment
      // checks are far cheaper than the join they avoid.
      ++Result.Stats.EntailmentChecks;
      return false;
    } else if (Wto.isHead(E.To) && Updates[E.To] >= Opts.WideningDelay) {
      ++Result.Stats.Widenings;
      CAI_TRACE_SPAN("lattice.widen", "lattice");
      obs::ProvenanceScope PS(E.To, Updates[E.To] + 1,
                              obs::ProvenanceRecorder::Step::Widen);
      Next = Lattice.widen(Target, Out);
      obs::diffStep(Lattice, Target, &Out, Next);
    } else {
      ++Result.Stats.Joins;
      CAI_TRACE_SPAN("lattice.join", "lattice");
      obs::ProvenanceScope PS(E.To, Updates[E.To] + 1,
                              obs::ProvenanceRecorder::Step::Join);
      Next = Lattice.joinCached(Target, Out);
      obs::diffStep(Lattice, Target, &Out, Next);
    }

    // Convergence check: cheap syntactic equality first, then mutual
    // entailment if enabled.
    bool Same = Next == Target;
    if (!Same && Opts.SemanticConvergence && !Target.isBottom()) {
      ++Result.Stats.EntailmentChecks;
      Same = Lattice.entailsAllCached(Target, Next) &&
             Lattice.entailsAllCached(Next, Target);
    }
    if (Same)
      return false;

    ++Updates[E.To];
    Result.Stats.TotalNodeUpdates += 1;
    if (Updates[E.To] > Result.Stats.MaxNodeUpdates)
      Result.Stats.MaxNodeUpdates = Updates[E.To];
    if (Updates[E.To] > Opts.MaxUpdatesPerNode) {
      Result.Converged = false;
      if (StageCapPtr)
        *StageCapPtr = true;
      return false; // Stop propagating through this node.
    }
    Target = std::move(Next);
    return true;
  };
  // A cancelled step leaves its target's state as it was.
  auto ApplyEdge = [&](size_t EdgeIdx, const Conjunction &State) {
    try {
      return Propagate(EdgeIdx, State);
    } catch (const OperationCancelled &) {
      Result.Cancelled = true;
      return false;
    }
  };

  // Stage worklist, shared across elements: keyed by WTO position so
  // inner loop bodies (contiguous positions right after their head) fully
  // stabilize before control returns to the enclosing component.  The
  // worklist itself is direction-parametric (analysis/Worklist.h); the
  // forward abstract interpreter drains ascending positions, the lint
  // tier's backward dataflow reuses the same scheduler descending.
  WtoWorklist Worklist(Wto, Direction::Forward);
  auto Enqueue = [&](NodeId N) { Worklist.enqueue(N); };

  // Ascending phase, one top-level WTO element at a time.  Stage K sees
  // its complete inputs because reachable cross-element edges only flow
  // forward and every earlier element already swept its final states
  // downstream.  (Backward cross-element edges exist only among
  // unreachable nodes, whose states are pinned at bottom, so the sweeps'
  // non-bottom source filter never lets one fire.)
  for (size_t S = 0, K = 0; S < Order.size() && !Result.Cancelled;
       S = Wto.componentEnd(static_cast<unsigned>(S)), ++K) {
    const unsigned End = Wto.componentEnd(static_cast<unsigned>(S));

    bool Replayed = false;
    if (K < Reusable) {
      // Decode the element's record fully before committing anything; any
      // failure (unknown symbol, malformed bytes, shape drift) just
      // demotes this and all later elements to live stages.
      const ComponentRecord &R = SnapIn->Components[K];
      bool Ok = R.FinalStates.size() == End - S;
      std::vector<Conjunction> Finals;
      Finals.reserve(R.FinalStates.size());
      for (size_t I = 0; Ok && I < R.FinalStates.size(); ++I) {
        std::optional<Conjunction> C =
            codec::decodeConjunction(Ctx, R.FinalStates[I]);
        if (C)
          Finals.push_back(std::move(*C));
        else
          Ok = false;
      }
      if (Ok) {
        for (unsigned Pos = S; Pos < End; ++Pos)
          Result.Invariants[Order[Pos]] = std::move(Finals[Pos - S]);
        // Replay the stage's counter contributions verbatim; serialized
        // stats must not reveal whether an element ran live.
        Result.Stats.Joins += R.Joins;
        Result.Stats.Widenings += R.Widenings;
        Result.Stats.Transfers += R.Transfers;
        Result.Stats.EdgeEvals += R.EdgeEvals;
        Result.Stats.EntailmentChecks += R.EntailmentChecks;
        Result.Stats.TotalNodeUpdates += R.TotalNodeUpdates;
        Result.Stats.MaxNodeUpdates =
            std::max(Result.Stats.MaxNodeUpdates, R.MaxUpdatesAbs);
        if (R.CapHit)
          Result.Converged = false;
        // Fast-forward fresh naming past the replayed stage so live work
        // downstream draws exactly the names a from-scratch run would.
        Ctx.setFreshCounter(std::max(Ctx.freshCounter(), R.FreshCounterAfter));
        ++Result.Stats.ComponentsReused;
        if (Opts.SnapshotOut) {
          ComponentRecord Copy = R;
          Copy.LocalFP = FP.Local[K];
          Copy.ChainFP = FP.Chain[K];
          Opts.SnapshotOut->Components.push_back(std::move(Copy));
        }
        Replayed = true;
      } else {
        Reusable = K; // This element and everything after runs live.
      }
    }

    if (!Replayed) {
      // Live stage: stabilize the element with a worklist confined to its
      // internal edges.  Cross-element targets are deliberately skipped
      // here -- the boundary sweep below delivers each source node's
      // *final* state exactly once instead of a stream of intermediates.
      AnalyzerStats Before = Result.Stats;
      bool StageCap = false;
      StageCapPtr = &StageCap;
      for (unsigned Pos = S; Pos < End; ++Pos)
        if (Marked[Order[Pos]])
          Enqueue(Order[Pos]);
      while (!Worklist.empty()) {
        if (Cancel.requested()) {
          Result.Cancelled = true;
          break;
        }
        NodeId N = Worklist.pop();
        // One span per worklist step; component-head steps are the WTO
        // component iterations the cost model cares about.
        CAI_TRACE_SPAN_ARGS(Wto.isHead(N) ? "wto.component-iteration"
                                          : "wto.node",
                            "wto", {"node", std::to_string(N)},
                            {"depth", std::to_string(Wto.depth(N))});
        const Conjunction &State = Result.Invariants[N];
        for (size_t EdgeIdx : Succs[N]) {
          const Edge &E = P.edges()[EdgeIdx];
          unsigned TPos = Wto.position(E.To);
          if (TPos < S || TPos >= End)
            continue; // Cross-element: the sweep's job.
          if (ApplyEdge(EdgeIdx, State))
            Enqueue(E.To);
        }
      }
      StageCapPtr = nullptr;
      ++Result.Stats.ComponentsRecomputed;

      if (Opts.SnapshotOut && !Result.Cancelled) {
        ComponentRecord R;
        R.LocalFP = FP.Local[K];
        R.ChainFP = FP.Chain[K];
        for (unsigned Pos = S; Pos < End; ++Pos)
          R.FinalStates.push_back(
              codec::encodeConjunction(Ctx, Result.Invariants[Order[Pos]]));
        R.Joins = Result.Stats.Joins - Before.Joins;
        R.Widenings = Result.Stats.Widenings - Before.Widenings;
        R.Transfers = Result.Stats.Transfers - Before.Transfers;
        R.EdgeEvals = Result.Stats.EdgeEvals - Before.EdgeEvals;
        R.EntailmentChecks =
            Result.Stats.EntailmentChecks - Before.EntailmentChecks;
        R.TotalNodeUpdates =
            Result.Stats.TotalNodeUpdates - Before.TotalNodeUpdates;
        for (unsigned Pos = S; Pos < End; ++Pos)
          R.MaxUpdatesAbs = std::max(R.MaxUpdatesAbs, Updates[Order[Pos]]);
        R.FreshCounterAfter = Ctx.freshCounter();
        R.CapHit = StageCap;
        Opts.SnapshotOut->Components.push_back(std::move(R));
      }
    }

    // Boundary sweep: deliver the element's final states across its
    // outgoing cross-element edges, in deterministic (position, edge)
    // order.  Runs live even for replayed elements -- it is how reused
    // states reach the first dirty element downstream.
    for (unsigned Pos = S; Pos < End && !Result.Cancelled; ++Pos) {
      NodeId N = Order[Pos];
      if (Result.Invariants[N].isBottom())
        continue;
      for (size_t EdgeIdx : Succs[N]) {
        const Edge &E = P.edges()[EdgeIdx];
        unsigned TPos = Wto.position(E.To);
        if (TPos >= S && TPos < End)
          continue; // Internal: the stage already propagated it.
        if (Cancel.requested()) {
          Result.Cancelled = true;
          break;
        }
        if (ApplyEdge(EdgeIdx, Result.Invariants[N]))
          Marked[E.To] = true;
      }
    }
  }

  if (Opts.SnapshotOut && !Result.Cancelled)
    Opts.SnapshotOut->Complete = true;

  // Descending (narrowing) passes: starting from the stabilized states,
  // recompute each node's input and meet it with the current state.  Both
  // operands over-approximate the concrete states at the node, so the meet
  // does too; this recovers constraints the widening threw away.
  try {
    for (unsigned Pass = 0; Pass < Opts.NarrowingPasses && !Result.Cancelled;
         ++Pass) {
      CAI_TRACE_SPAN_ARGS("analyzer.narrowing-pass", "analyzer",
                          {"pass", std::to_string(Pass)});
      std::vector<Conjunction> Inputs(P.numNodes(), Conjunction::bottom());
      Inputs[P.entry()] = Conjunction::top();
      for (size_t EdgeIdx = 0; EdgeIdx < P.edges().size(); ++EdgeIdx) {
        if (Cancel.requested()) {
          Result.Cancelled = true;
          break;
        }
        const Edge &E = P.edges()[EdgeIdx];
        Conjunction Out = Transfer(E.Act, Result.Invariants[E.From]);
        if (Out.isBottom())
          continue;
        if (Inputs[E.To].isBottom()) {
          Inputs[E.To] = std::move(Out);
        } else {
          ++Result.Stats.Joins;
          Inputs[E.To] = Lattice.joinCached(Inputs[E.To], Out);
        }
      }
      // A partially accumulated Inputs vector is missing edge
      // contributions, so meeting with it would under-approximate: discard
      // the interrupted pass entirely.
      if (Result.Cancelled)
        break;
      bool Changed = false;
      for (NodeId N = 0; N < P.numNodes(); ++N) {
        Conjunction Refined = Lattice.meet(Result.Invariants[N], Inputs[N]);
        if (Refined != Result.Invariants[N]) {
          Result.Invariants[N] = std::move(Refined);
          Changed = true;
        }
      }
      if (!Changed)
        break;
    }
  } catch (const OperationCancelled &) {
    Result.Cancelled = true;
  }

  if (!Result.Cancelled) {
    CAI_TRACE_SPAN("analyzer.check-assertions", "analyzer");
    try {
      for (const Assertion &A : P.assertions()) {
        AssertionVerdict V;
        V.Label = A.Label;
        const Conjunction &Inv = Result.Invariants[A.Node];
        V.Verified = Inv.isBottom() || Lattice.entailsCached(Inv, A.Fact);
        ++Result.Stats.EntailmentChecks;
        Result.Assertions.push_back(std::move(V));
      }
    } catch (const OperationCancelled &) {
      Result.Cancelled = true;
    }
  }
  if (Result.Cancelled) {
    // The truncated invariants under-approximate reachable states, so no
    // verdict derived from them is trustworthy: report every assertion
    // unverified and flag the run.
    Result.Converged = false;
    Result.Assertions.clear();
    for (const Assertion &A : P.assertions())
      Result.Assertions.push_back({A.Label, false});
  }

  LatticeStats Delta = Lattice.statsSnapshot() - StatsBefore;
  Result.Stats.CacheHits = Delta.CacheHits;
  Result.Stats.CacheMisses = Delta.CacheMisses;
  Result.Stats.SaturationRounds = Delta.SaturationRounds;

  // Publish the run's counters into the global metrics registry -- the
  // machine-readable export every driver (--metrics-out, the benches, the
  // CI gate) reads.  AnalyzerStats stays the per-run snapshot API.
  CAI_METRIC_INC("analyzer.runs");
  CAI_METRIC_ADD("analyzer.joins", Result.Stats.Joins);
  CAI_METRIC_ADD("analyzer.widenings", Result.Stats.Widenings);
  CAI_METRIC_ADD("analyzer.transfers", Result.Stats.Transfers);
  CAI_METRIC_ADD("analyzer.edge_evals", Result.Stats.EdgeEvals);
  CAI_METRIC_ADD("analyzer.entailment_checks", Result.Stats.EntailmentChecks);
  CAI_METRIC_ADD("analyzer.node_updates", Result.Stats.TotalNodeUpdates);
  CAI_METRIC_ADD("lattice.cache.hits", Delta.CacheHits);
  CAI_METRIC_ADD("lattice.cache.misses", Delta.CacheMisses);
  CAI_METRIC_ADD("lattice.saturation_rounds", Delta.SaturationRounds);
#ifndef CAI_DISABLE_OBS
  obs::MetricsRegistry::current().gauge("analyzer.wto_components")
      .set(Result.Stats.WtoComponents);
  obs::MetricsRegistry::current().gauge("analyzer.max_node_updates")
      .set(Result.Stats.MaxNodeUpdates);
#endif
  return Result;
}
