//===- check/FaultInjection.h - Deliberately broken lattices ----*- C++ -*-===//
///
/// \file
/// Test-only decorators that break a lattice contract on purpose, used to
/// demonstrate that the checker (check/CheckedLattice.h) actually catches
/// and attributes violations.  Stack as Checked(Broken(Domain)): the
/// checker sees the broken operator as "the inner lattice" and must flag
/// it.  Wired to `cai-analyze --test-break-join` so the end-to-end path
/// (engine step -> provenance context -> violation report -> exit code)
/// is exercised by a ctest, not just a unit test.
///
//===----------------------------------------------------------------------===//

#ifndef CAI_CHECK_FAULTINJECTION_H
#define CAI_CHECK_FAULTINJECTION_H

#include "theory/LogicalLattice.h"

namespace cai {
namespace check {

/// Forwards everything to the inner lattice except join, which unsoundly
/// returns its LEFT argument from the \p BreakFrom-th call onward
/// (0-based).  Dropping the right argument violates the upper-bound
/// contract whenever the engine actually merges new information -- and the
/// engine only calls join when the incoming state does NOT already entail
/// the target (the semantic-convergence fast path), so the very first
/// broken join is a guaranteed, checkable violation.
class BrokenJoinLattice : public LogicalLattice {
public:
  BrokenJoinLattice(const LogicalLattice &Inner, unsigned BreakFrom = 0)
      : LogicalLattice(Inner.context()), Inner(Inner), BreakFrom(BreakFrom) {}

  std::string name() const override {
    return "broken-join(" + Inner.name() + ")";
  }

  bool ownsFunction(Symbol S) const override { return Inner.ownsFunction(S); }
  bool ownsPredicate(Symbol S) const override { return Inner.ownsPredicate(S); }
  bool ownsNumerals() const override { return Inner.ownsNumerals(); }

  Conjunction join(const Conjunction &A, const Conjunction &B) const override {
    if (Calls++ >= BreakFrom)
      return A; // Unsound: forgets everything only B knew.
    return Inner.joinCached(A, B);
  }

  Conjunction widen(const Conjunction &Old,
                    const Conjunction &New) const override {
    return Inner.widen(Old, New);
  }
  Conjunction meet(const Conjunction &A, const Conjunction &B) const override {
    return Inner.meet(A, B);
  }
  Conjunction existQuant(const Conjunction &E,
                         const std::vector<Term> &Vars) const override {
    return Inner.existQuantCached(E, Vars);
  }
  bool entails(const Conjunction &E, const Atom &A) const override {
    return Inner.entailsCached(E, A);
  }
  bool isUnsat(const Conjunction &E) const override {
    return Inner.isUnsatCached(E);
  }
  std::vector<std::pair<Term, Term>>
  impliedVarEqualities(const Conjunction &E) const override {
    return Inner.impliedVarEqualitiesCached(E);
  }
  std::optional<Term>
  alternate(const Conjunction &E, Term Var,
            const std::vector<Term> &Avoid) const override {
    return Inner.alternate(E, Var, Avoid);
  }
  std::vector<std::pair<Term, Term>>
  alternateBatch(const Conjunction &E,
                 const std::vector<Term> &Targets) const override {
    return Inner.alternateBatch(E, Targets);
  }

  void setMemoization(bool Enabled) const override {
    LogicalLattice::setMemoization(Enabled);
    Inner.setMemoization(Enabled);
  }
  void collectStats(LatticeStats &S) const override {
    LogicalLattice::collectStats(S);
    Inner.collectStats(S);
  }
  std::string attributeAtom(const Atom &A) const override {
    return Inner.attributeAtom(A);
  }

  unsigned joinCalls() const { return Calls; }

private:
  const LogicalLattice &Inner;
  unsigned BreakFrom;
  mutable unsigned Calls = 0;
};

} // namespace check
} // namespace cai

#endif // CAI_CHECK_FAULTINJECTION_H
