//===- check/CheckedLattice.h - Online lattice-contract checker -*- C++ -*-===//
///
/// \file
/// A decorator over any LogicalLattice that verifies, online during a real
/// analysis, the algebraic contracts the paper's algorithms rely on:
///
///   * join is an upper bound     -- both arguments entail the result
///     (Definition 3 requires the LEAST upper bound; minimality is not
///     decidable from the interface, but soundness of the fixpoint only
///     needs the bound direction checked here);
///   * widen is an upper bound    -- ditto, for both arguments;
///   * meet is a lower bound      -- the result entails both arguments;
///   * existQuant eliminates      -- the result mentions none of the
///     requested variables, and is entailed by the argument
///     (Definition 4's "implied by E" direction);
///   * impliedVarEqualities and alternate return only facts the argument
///     actually entails.
///
/// Each check replays the result through the inner lattice's own
/// entailment, so a violation means the domain disagrees with itself --
/// strong evidence of a bug regardless of which side is wrong.  Calls are
/// routed through the inner lattice's *cached* entry points where it has
/// them (widen and meet have none) on purpose: a stale memo entry (the
/// cache returning a value the recomputed operation would not) surfaces
/// as a contract violation too.
///
/// Violations are recorded with the active obs::ProvenanceRecorder context
/// stamped by the fixpoint engine, so a report names the exact CFG node,
/// update ordinal, and step kind where the contract broke.  Checking is
/// O(result atoms) entailment queries per operation -- built for the
/// `--check=contracts` audit mode, not for production runs.
///
//===----------------------------------------------------------------------===//

#ifndef CAI_CHECK_CHECKEDLATTICE_H
#define CAI_CHECK_CHECKEDLATTICE_H

#include "obs/Provenance.h"
#include "theory/LogicalLattice.h"

namespace cai {
namespace check {

/// One broken contract, caught in the act.
struct CheckViolation {
  enum class Contract : uint8_t {
    JoinUpperBound,     ///< An argument does not entail join's result.
    WidenUpperBound,    ///< An argument does not entail widen's result.
    MeetLowerBound,     ///< meet's result does not entail an argument.
    QuantElimination,   ///< existQuant left a requested variable behind.
    QuantEntailment,    ///< existQuant's result is not implied by E.
    VarEqUnsound,       ///< impliedVarEqualities returned a non-fact.
    AlternateUnsound,   ///< alternate's definition is wrong or not avoided.
  };

  Contract Kind;
  std::string Operation; ///< "join", "widen", "meet", "existQuant", ...
  std::string Detail;    ///< Which operand / atom / variable failed.
  Conjunction LHS, RHS;  ///< The operands (RHS top for unary operations).
  Conjunction Result;    ///< What the inner lattice returned.
  /// Engine step active when the violation fired (Valid=false when the
  /// operation ran outside any engine step, e.g. from a direct API call).
  obs::ProvenanceRecorder::Context Where;
};

/// The checking decorator.  Wraps a borrowed inner lattice; install it in
/// place of the inner one and run the analysis as usual.
class CheckedLattice : public LogicalLattice {
public:
  explicit CheckedLattice(const LogicalLattice &Inner)
      : LogicalLattice(Inner.context()), Inner(Inner) {}

  std::string name() const override { return "checked(" + Inner.name() + ")"; }

  bool ownsFunction(Symbol S) const override { return Inner.ownsFunction(S); }
  bool ownsPredicate(Symbol S) const override { return Inner.ownsPredicate(S); }
  bool ownsNumerals() const override { return Inner.ownsNumerals(); }

  Conjunction join(const Conjunction &A, const Conjunction &B) const override;
  Conjunction widen(const Conjunction &Old,
                    const Conjunction &New) const override;
  Conjunction meet(const Conjunction &A, const Conjunction &B) const override;
  Conjunction existQuant(const Conjunction &E,
                         const std::vector<Term> &Vars) const override;
  bool entails(const Conjunction &E, const Atom &A) const override;
  bool isUnsat(const Conjunction &E) const override;
  std::vector<std::pair<Term, Term>>
  impliedVarEqualities(const Conjunction &E) const override;
  std::optional<Term> alternate(const Conjunction &E, Term Var,
                                const std::vector<Term> &Avoid) const override;
  std::vector<std::pair<Term, Term>>
  alternateBatch(const Conjunction &E,
                 const std::vector<Term> &Targets) const override;

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

  /// Master switch: disabled, every operation forwards with zero checking
  /// (the bench rung measures this configuration's overhead).
  void setChecking(bool On) const { Enabled = On; }
  bool checkingEnabled() const { return Enabled; }

  const std::vector<CheckViolation> &violations() const { return Violations; }
  unsigned long checksRun() const { return Checks; }
  void clearViolations() const { Violations.clear(); }

  /// Human-readable report for one violation, including the engine-step
  /// attribution ("during join of node 5, update 3").
  std::string describe(const CheckViolation &V) const;

  static const char *contractName(CheckViolation::Contract C);

private:
  /// True if \p E entails every atom of \p C under the inner lattice
  /// (bottom handling as LogicalLattice::entailsAll).  Uncached on
  /// purpose: the verdict that convicts an operation must not come from
  /// the same memo tables the operation may have corrupted.
  bool innerEntailsAll(const Conjunction &E, const Conjunction &C) const;

  void report(CheckViolation::Contract Kind, const char *Operation,
              std::string Detail, const Conjunction &LHS,
              const Conjunction &RHS, const Conjunction &Result) const;

  const LogicalLattice &Inner;
  mutable bool Enabled = true;
  mutable unsigned long Checks = 0;
  mutable std::vector<CheckViolation> Violations;
  /// Keep reports bounded: a broken operator fires on every call.
  static constexpr size_t MaxViolations = 64;
};

} // namespace check
} // namespace cai

#endif // CAI_CHECK_CHECKEDLATTICE_H
