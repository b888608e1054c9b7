//===- product/LogicalProduct.cpp - The paper's core construction ----------===//

#include "product/LogicalProduct.h"

#include "obs/Metrics.h"
#include "obs/Provenance.h"
#include "obs/Trace.h"
#include "support/Cancel.h"

#include <algorithm>
#include <set>

using namespace cai;

namespace {

/// Deduplicated, id-ordered union of variable vectors.
std::vector<Term> unionVars(std::vector<Term> A, const std::vector<Term> &B) {
  A.insert(A.end(), B.begin(), B.end());
  std::sort(A.begin(), A.end(), TermStructLess());
  A.erase(std::unique(A.begin(), A.end()), A.end());
  return A;
}

/// Marks every variable occurring strictly below a non-arithmetic
/// application -- the positions where alien terms can appear, and hence
/// the only variables whose dummy pairs can name one.
void collectInsideVars(const TermContext &Ctx, Term T, bool UnderApp,
                       std::set<Term, TermStructLess> &Out) {
  switch (T->kind()) {
  case TermKind::Variable:
    if (UnderApp)
      Out.insert(T);
    return;
  case TermKind::Number:
    return;
  case TermKind::App:
    break;
  }
  bool NowUnder = UnderApp || !Ctx.info(T->symbol()).Arithmetic;
  for (Term Arg : T->args())
    collectInsideVars(Ctx, Arg, NowUnder, Out);
}

std::set<Term, TermStructLess> insideVars(const TermContext &Ctx,
                                      const Conjunction &E) {
  std::set<Term, TermStructLess> Out;
  if (E.isBottom())
    return Out;
  for (const Atom &A : E.atoms())
    for (Term Arg : A.args())
      collectInsideVars(Ctx, Arg, /*UnderApp=*/false, Out);
  return Out;
}

} // namespace

std::shared_ptr<const LogicalProduct::SatEntry>
LogicalProduct::purifySaturate(const Conjunction &E, bool UseAltCache) const {
  assert(!E.isBottom() && "purifySaturate on bottom");
  // Every product operation on a non-bottom element passes here, at every
  // nesting level; a deeply nested product spends seconds in one analyzer
  // step, so this is where a run's deadline must be seen.
  cancelPoint();
  auto &Cache = UseAltCache ? SatCacheAlt : SatCache;
  if (memoizationEnabled())
    if (const auto *Hit = Cache.lookup(E)) {
      CAI_METRIC_INC("product.purify_saturate.cache_hits");
      return *Hit;
    }
  CAI_TRACE_SPAN("product.purify-saturate", "product");
  CAI_METRIC_INC("product.purify_saturate.misses");
  TermContext &Ctx = context();
  auto Entry = std::make_shared<SatEntry>(Ctx, L1, L2);
  for (const Atom &A : E.atoms()) {
    auto [S, Pure] = Entry->Pur.purifyAtom(A);
    Entry->Pur.addToSide(S, Pure);
  }
  Entry->P.FreshVars = Entry->Pur.freshVars();
  Entry->P.Side1 = Entry->Pur.side1();
  Entry->P.Side2 = Entry->Pur.side2();
  Entry->P.Definitions = Entry->Pur.definitions();
  Entry->Sat = noSaturate(Ctx, L1, L2, Entry->P.Side1, Entry->P.Side2);
  SatRounds += Entry->Sat.Rounds;
  if (memoizationEnabled())
    Cache.insert(E, Entry);
  return Entry;
}

Conjunction LogicalProduct::combine(const Conjunction &A, const Conjunction &B,
                                    bool UseWiden) const {
  CAI_TRACE_SPAN(UseWiden ? "product.widen" : "product.join", "product");
  TermContext &Ctx = context();
  if (A.isBottom() || isUnsatCached(A))
    return B;
  if (B.isBottom() || isUnsatCached(B))
    return A;

  // Lines 1-4 of Figure 6: purify and NO-saturate both inputs (memoized --
  // re-joining a stable loop invariant against a new contribution reuses
  // the invariant's saturation).  The two sides MUST carry disjoint
  // purification names: the component joins drop each side's private
  // fresh-variable facts precisely because the other side leaves them
  // unconstrained.  Distinct conjunctions get distinct cache entries and
  // hence disjoint names; joining a conjunction with itself routes the
  // right side through the independent alternate cache, so a repeated
  // self-join re-purifies nothing while the names stay disjoint.
  std::shared_ptr<const SatEntry> EL = purifySaturate(A);
  std::shared_ptr<const SatEntry> ER = purifySaturate(B, /*UseAltCache=*/A == B);
  const PurifyResult &PL = EL->P;
  const PurifyResult &PR = ER->P;
  if (EL->Sat.Bottom)
    return B;
  if (ER->Sat.Bottom)
    return A;

  Conjunction Left1 = EL->Sat.Side1, Left2 = EL->Sat.Side2;
  Conjunction Right1 = ER->Sat.Side1, Right2 = ER->Sat.Side2;

  std::vector<Term> DummyVars;
  if (M == Mode::Logical) {
    // Lines 5-7: one fresh dummy variable per <x, y> pair of left/right
    // variables, defined as x on the left and as y on the right, so the
    // component joins can name alien terms that occur semantically on both
    // sides.  Pairs with x == y are redundant (the shared variable itself
    // plays that role) and are skipped.
    std::vector<Term> LeftVars = unionVars(A.vars(), PL.FreshVars);
    std::vector<Term> RightVars = unionVars(B.vars(), PR.FreshVars);
    if (Pairs == DummyPairs::Pruned) {
      // Keep only variables that can name an alien term: purification
      // variables (they name aliens by construction) and variables
      // occurring under a non-arithmetic application.
      auto Prune = [&](std::vector<Term> &Vars, const Conjunction &E,
                       const std::vector<Term> &Fresh) {
        std::set<Term, TermStructLess> Keep = insideVars(Ctx, E);
        Keep.insert(Fresh.begin(), Fresh.end());
        Vars.erase(std::remove_if(Vars.begin(), Vars.end(),
                                  [&](Term V) { return !Keep.count(V); }),
                   Vars.end());
      };
      Prune(LeftVars, A, PL.FreshVars);
      Prune(RightVars, B, PR.FreshVars);
    }
    for (Term X : LeftVars) {
      for (Term Y : RightVars) {
        if (X == Y)
          continue;
        Term P = Ctx.freshVar("p");
        DummyVars.push_back(P);
        Atom LeftDef = Atom::mkEq(Ctx, X, P);
        Atom RightDef = Atom::mkEq(Ctx, Y, P);
        Left1.add(LeftDef);
        Left2.add(LeftDef);
        Right1.add(RightDef);
        Right2.add(RightDef);
      }
    }
  }

  // Lines 8-9: component-wise join (through the components' join cache) or
  // widening (Section 4.3).
  Conjunction E1 = UseWiden ? L1.widen(Left1, Right1)
                            : L1.joinCached(Left1, Right1);
  Conjunction E2 = UseWiden ? L2.widen(Left2, Right2)
                            : L2.joinCached(Left2, Right2);
  Conjunction E = E1.meet(E2);

  // Line 10: eliminate the dummies with the product's own Q, which is what
  // materializes mixed facts such as u = F(v + 1).
  if (!DummyVars.empty())
    E = existQuant(E, DummyVars);
  Conjunction Result = E.simplified(Ctx);

  // Precision provenance: attribute each input conjunct the combine lost
  // to the component step that dropped it.  Runs only under --explain.
  if (obs::ProvenanceRecorder::active())
    recordCombineLosses(A, *EL, B, *ER, E1, E2, Result, UseWiden);
  return Result;
}

/// For every atom of an input side no longer entailed by \p Result,
/// records whether the owning component's join/widening dropped its pure
/// form (blaming that component domain) or the component kept it and the
/// dummy-elimination quantification lost it on the way back.
void LogicalProduct::recordCombineLosses(const Conjunction &A,
                                         const SatEntry &EL,
                                         const Conjunction &B,
                                         const SatEntry &ER,
                                         const Conjunction &E1,
                                         const Conjunction &E2,
                                         const Conjunction &Result,
                                         bool UseWiden) const {
  obs::ProvenanceRecorder *R = obs::ProvenanceRecorder::active();
  if (!R || !R->context().Valid)
    return;
  using Step = obs::ProvenanceRecorder::Step;
  unsigned Rounds = EL.Sat.Rounds + ER.Sat.Rounds;
  auto CheckSide = [&](const Conjunction &Input, const SatEntry &Entry) {
    for (const Atom &At : Input.atoms()) {
      if (At.isTrivial(context()) || R->recorded(At) ||
          (!Result.isBottom() && entailsCached(Result, At)))
        continue;
      // Re-purify the lost atom with the same alien naming as this side's
      // saturated conjunctions, so the component results can be queried.
      Purifier P = Entry.Pur;
      auto [Side, Pure] = P.purifyAtom(At);
      obs::ProvenanceRecorder::LossEvent Ev;
      Ev.Kind = UseWiden ? Step::ComponentWiden : Step::ComponentJoin;
      Ev.Node = R->context().Node;
      Ev.Update = R->context().Update;
      Ev.Lost = At;
      Ev.SaturationRounds = Rounds;
      bool Lost1 = (Side == Purifier::Side::One ||
                    Side == Purifier::Side::Both) &&
                   !L1.entailsCached(E1, Pure);
      bool Lost2 = (Side == Purifier::Side::Two ||
                    Side == Purifier::Side::Both) &&
                   !L2.entailsCached(E2, Pure);
      if (Lost1 && !Lost2)
        Ev.Domain = L1.attributeAtom(Pure);
      else if (Lost2 && !Lost1)
        Ev.Domain = L2.attributeAtom(Pure);
      else if (Lost1 && Lost2)
        Ev.Domain = name();
      else if (Side == Purifier::Side::Dropped) {
        Ev.Domain = name();
      } else {
        // Both component results still entail the pure form; the loss
        // happened rebuilding the mixed fact (Figure 6 line 10).
        Ev.Kind = Step::Quantification;
        Ev.Domain = name();
      }
      R->record(std::move(Ev));
    }
  };
  CheckSide(A, EL);
  CheckSide(B, ER);
}

Conjunction LogicalProduct::join(const Conjunction &A,
                                 const Conjunction &B) const {
  return combine(A, B, /*UseWiden=*/false);
}

Conjunction LogicalProduct::widen(const Conjunction &Old,
                                  const Conjunction &New) const {
  return combine(Old, New, /*UseWiden=*/true);
}

LogicalProduct::QSaturationResult
LogicalProduct::qSaturate(const Conjunction &E1, const Conjunction &E2,
                          const std::vector<Term> &V1) const {
  QSaturationResult Result;
  std::vector<Term> V2 = V1; // Still-unresolved variables, id-ordered.
  // Round-based batched Alternate: each batch finds every definition
  // derivable while avoiding the whole current V2 (one canonicalization
  // pass per theory per round), and removals unlock further definitions in
  // the next round -- the same fixpoint as the paper's per-variable loop.
  bool Changed = true;
  while (Changed && !V2.empty()) {
    Changed = false;
    for (int Side = 0; Side < 2 && !V2.empty(); ++Side) {
      const LogicalLattice &L = Side == 0 ? L1 : L2;
      const Conjunction &E = Side == 0 ? E1 : E2;
      for (auto &[Y, T] : L.alternateBatch(E, V2)) {
        auto It = std::find(V2.begin(), V2.end(), Y);
        if (It == V2.end())
          continue;
        Result.Defs.emplace_back(Y, T);
        V2.erase(It);
        Changed = true;
      }
    }
  }
  Result.Remaining = std::move(V2);
  return Result;
}

Conjunction LogicalProduct::backSubstitute(
    Conjunction E, const std::vector<std::pair<Term, Term>> &Defs) const {
  // Definitions found later may mention variables defined earlier but not
  // vice versa, so substituting in reverse removal order resolves chains.
  for (auto It = Defs.rbegin(); It != Defs.rend(); ++It) {
    Substitution S;
    S.emplace(It->first, It->second);
    E = E.substitute(context(), S);
  }
  return E;
}

Conjunction LogicalProduct::existQuant(const Conjunction &E,
                                       const std::vector<Term> &Vars) const {
  CAI_TRACE_SPAN("product.exist-quant", "product");
  TermContext &Ctx = context();
  if (E.isBottom())
    return E;

  // Lines 1-2 of Figure 7 (memoized).
  std::shared_ptr<const SatEntry> Entry = purifySaturate(E);
  const PurifyResult &P = Entry->P;
  const SaturationResult &Sat = Entry->Sat;
  if (Sat.Bottom)
    return Conjunction::bottom();

  // Line 3: V1 is everything to eliminate -- the caller's variables plus
  // the purification variables.
  std::vector<Term> V1 = unionVars(Vars, P.FreshVars);

  // Line 4: in Logical mode, find Alternate definitions; the reduced
  // product takes V2 := V1.
  QSaturationResult Q;
  if (M == Mode::Logical)
    Q = qSaturate(Sat.Side1, Sat.Side2, V1);
  else
    Q.Remaining = V1;

  // Lines 5-6: component quantification over the undefined variables.
  Conjunction E12 = L1.existQuantCached(Sat.Side1, Q.Remaining);
  Conjunction E22 = L2.existQuantCached(Sat.Side2, Q.Remaining);

  // Lines 7-8: back-substitute the definitions, producing mixed facts.
  E12 = backSubstitute(std::move(E12), Q.Defs);
  E22 = backSubstitute(std::move(E22), Q.Defs);

  // Line 9.
  return E12.meet(E22).simplified(Ctx);
}

bool LogicalProduct::entails(const Conjunction &E, const Atom &A) const {
  TermContext &Ctx = context();
  if (E.isBottom())
    return true;
  if (A.isTrivial(Ctx))
    return true;

  // Reuse E's memoized purification + saturation, then purify the queried
  // fact with the *same* alien-term naming (the kept Purifier's tables) on
  // top of the saturated sides.  Re-saturating from the saturated state
  // converges in at most one extra exchange round, so the closure -- and
  // hence the verdict -- is identical to the joint saturation
  // combinedEntails performs, at a fraction of the repeated cost.
  std::shared_ptr<const SatEntry> Entry = purifySaturate(E);
  if (Entry->Sat.Bottom)
    return true;
  Purifier P = Entry->Pur;
  P.side1() = Entry->Sat.Side1;
  P.side2() = Entry->Sat.Side2;
  auto [FSide, FPure] = P.purifyAtom(A);
  if (FSide == Purifier::Side::Dropped)
    return false; // Neither theory can even express the fact.

  SaturationResult Sat = noSaturate(Ctx, L1, L2, P.side1(), P.side2());
  SatRounds += Sat.Rounds;
  if (Sat.Bottom)
    return true;
  switch (FSide) {
  case Purifier::Side::One:
    return L1.entailsCached(Sat.Side1, FPure);
  case Purifier::Side::Two:
    return L2.entailsCached(Sat.Side2, FPure);
  case Purifier::Side::Both:
    return L1.entailsCached(Sat.Side1, FPure) ||
           L2.entailsCached(Sat.Side2, FPure);
  case Purifier::Side::Dropped:
    break;
  }
  return false;
}

bool LogicalProduct::isUnsat(const Conjunction &E) const {
  if (E.isBottom())
    return true;
  return purifySaturate(E)->Sat.Bottom;
}

std::vector<std::pair<Term, Term>>
LogicalProduct::impliedVarEqualities(const Conjunction &E) const {
  std::vector<std::pair<Term, Term>> Out;
  if (E.isBottom())
    return Out;
  std::shared_ptr<const SatEntry> Entry = purifySaturate(E);
  const SaturationResult &Sat = Entry->Sat;
  if (Sat.Bottom)
    return Out;
  // After saturation each side individually implies every shared variable
  // equality; take the union restricted to the input's own variables.
  std::set<Term, TermStructLess> InputVars;
  for (Term V : E.vars())
    InputVars.insert(V);
  auto Collect = [&](const std::vector<std::pair<Term, Term>> &Eqs) {
    for (const auto &[X, Y] : Eqs)
      if (InputVars.count(X) && InputVars.count(Y))
        Out.emplace_back(X, Y);
  };
  Collect(L1.impliedVarEqualitiesCached(Sat.Side1));
  Collect(L2.impliedVarEqualitiesCached(Sat.Side2));
  std::sort(Out.begin(), Out.end(), [](const auto &A, const auto &B) {
    if (int D = structuralCompare(A.first, B.first))
      return D < 0;
    return structuralCompare(A.second, B.second) < 0;
  });
  Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  return Out;
}

std::optional<Term>
LogicalProduct::alternate(const Conjunction &E, Term Var,
                          const std::vector<Term> &Avoid) const {
  if (E.isBottom())
    return std::nullopt;
  TermContext &Ctx = context();
  std::shared_ptr<const SatEntry> Entry = purifySaturate(E);
  const PurifyResult &P = Entry->P;
  const SaturationResult &Sat = Entry->Sat;
  if (Sat.Bottom)
    return std::nullopt;
  // Eliminate Var, the avoided variables and the purification variables;
  // if QSaturation found a definition for Var, back-substitution yields a
  // term over permitted variables only.
  std::vector<Term> V1 = unionVars(Avoid, P.FreshVars);
  V1 = unionVars(V1, {Var});
  QSaturationResult Q = qSaturate(Sat.Side1, Sat.Side2, V1);
  for (size_t I = 0; I < Q.Defs.size(); ++I) {
    if (Q.Defs[I].first != Var)
      continue;
    // Resolve chains: a definition found at step I may mention variables
    // defined at earlier steps (never later ones), so substitute the
    // earlier definitions into Var's, most recent first.
    Term T = Q.Defs[I].second;
    for (size_t J = I; J-- > 0;) {
      Substitution S;
      S.emplace(Q.Defs[J].first, Q.Defs[J].second);
      T = Ctx.substitute(T, S);
    }
    return T;
  }
  return std::nullopt;
}
