//===- theory/LogicalLattice.cpp - The abstract-domain interface ----------===//

#include "theory/LogicalLattice.h"

using namespace cai;

LogicalLattice::~LogicalLattice() = default;

Conjunction LogicalLattice::widen(const Conjunction &Old,
                                  const Conjunction &New) const {
  return join(Old, New);
}

std::vector<std::pair<Term, Term>>
LogicalLattice::alternateBatch(const Conjunction &E,
                               const std::vector<Term> &Targets) const {
  std::vector<std::pair<Term, Term>> Out;
  for (Term Y : Targets) {
    std::vector<Term> Avoid;
    for (Term Z : Targets)
      if (Z != Y)
        Avoid.push_back(Z);
    if (std::optional<Term> T = alternate(E, Y, Avoid)) {
      // The contract requires avoidance of *all* targets including those
      // already defined this batch; alternate's per-variable avoid set
      // covers exactly that here.
      Out.emplace_back(Y, *T);
    }
  }
  return Out;
}

Conjunction LogicalLattice::meet(const Conjunction &A,
                                 const Conjunction &B) const {
  Conjunction Result = A.meet(B);
  if (!Result.isBottom() && isUnsatCached(Result))
    return Conjunction::bottom();
  return Result;
}

Conjunction LogicalLattice::joinCached(const Conjunction &A,
                                       const Conjunction &B) const {
  if (!MemoEnabled)
    return join(A, B);
  detail::ConjPairKey K{A, B};
  if (const Conjunction *Hit = JoinCache.lookup(K))
    return *Hit;
  Conjunction R = join(A, B);
  JoinCache.insert(std::move(K), R);
  return R;
}

Conjunction
LogicalLattice::existQuantCached(const Conjunction &E,
                                 const std::vector<Term> &Vars) const {
  if (!MemoEnabled)
    return existQuant(E, Vars);
  detail::QuantKey K{E, Vars};
  if (const Conjunction *Hit = QuantCache.lookup(K))
    return *Hit;
  Conjunction R = existQuant(E, Vars);
  QuantCache.insert(std::move(K), R);
  return R;
}

bool LogicalLattice::entailsCached(const Conjunction &E, const Atom &A) const {
  if (!MemoEnabled)
    return entails(E, A);
  detail::ConjAtomKey K{E, A};
  if (const bool *Hit = EntailCache.lookup(K))
    return *Hit;
  bool R = entails(E, A);
  EntailCache.insert(std::move(K), R);
  return R;
}

bool LogicalLattice::isUnsatCached(const Conjunction &E) const {
  if (!MemoEnabled)
    return isUnsat(E);
  if (const bool *Hit = UnsatCache.lookup(E))
    return *Hit;
  bool R = isUnsat(E);
  UnsatCache.insert(E, R);
  return R;
}

bool LogicalLattice::entailsAllCached(const Conjunction &E,
                                      const Conjunction &C) const {
  // Goes through the per-atom caches, so partially overlapping queries
  // (same E, different C sharing atoms) share work.
  if (E.isBottom())
    return true;
  if (C.isBottom())
    return isUnsatCached(E);
  for (const Atom &A : C.atoms())
    if (!entailsCached(E, A))
      return false;
  return true;
}

std::vector<std::pair<Term, Term>>
LogicalLattice::impliedVarEqualitiesCached(const Conjunction &E) const {
  if (!MemoEnabled)
    return impliedVarEqualities(E);
  if (const auto *Hit = VarEqCache.lookup(E))
    return *Hit;
  std::vector<std::pair<Term, Term>> R = impliedVarEqualities(E);
  VarEqCache.insert(E, R);
  return R;
}

void LogicalLattice::collectStats(LatticeStats &S) const {
  for (const QueryCacheCounters &C :
       {JoinCache.counters(), EntailCache.counters(), UnsatCache.counters(),
        QuantCache.counters(), VarEqCache.counters()}) {
    S.CacheHits += C.Hits;
    S.CacheMisses += C.Misses;
  }
}

bool LogicalLattice::entailsAll(const Conjunction &E,
                                const Conjunction &C) const {
  if (E.isBottom())
    return true;
  if (C.isBottom())
    return isUnsat(E);
  for (const Atom &A : C.atoms())
    if (!entails(E, A))
      return false;
  return true;
}

bool LogicalLattice::equivalent(const Conjunction &A,
                                const Conjunction &B) const {
  return entailsAll(A, B) && entailsAll(B, A);
}

namespace {

/// Counts the symbols of \p T that \p L's theory owns (numerals and
/// arithmetic applications count against ownsNumerals) alongside the total
/// symbol count.  Variables are free in every theory and not counted.
void tallyOwnership(const TermContext &Ctx, const LogicalLattice &L, Term T,
                    unsigned &Owned, unsigned &Total) {
  switch (T->kind()) {
  case TermKind::Variable:
    return;
  case TermKind::Number:
    ++Total;
    Owned += L.ownsNumerals();
    return;
  case TermKind::App:
    break;
  }
  ++Total;
  Owned += Ctx.info(T->symbol()).Arithmetic ? L.ownsNumerals()
                                            : L.ownsFunction(T->symbol());
  for (Term Arg : T->args())
    tallyOwnership(Ctx, L, Arg, Owned, Total);
}

} // namespace

std::string cai::attributeProductAtom(const TermContext &Ctx,
                                      const LogicalLattice &L1,
                                      const LogicalLattice &L2, const Atom &A,
                                      const std::string &SharedName) {
  unsigned Total = 0, Owned1 = 0, Owned2 = 0;
  if (!A.isEq(Ctx)) {
    ++Total;
    Owned1 += L1.ownsPredicate(A.predicate());
    Owned2 += L2.ownsPredicate(A.predicate());
  }
  for (Term Arg : A.args()) {
    unsigned Ignored = 0;
    tallyOwnership(Ctx, L1, Arg, Owned1, Ignored);
    tallyOwnership(Ctx, L2, Arg, Owned2, Total);
  }
  if (Total == 0)
    return SharedName; // Pure variable equality: shared by every theory.
  if (Owned1 == Total && Owned2 < Total)
    return L1.attributeAtom(A);
  if (Owned2 == Total && Owned1 < Total)
    return L2.attributeAtom(A);
  return SharedName;
}
