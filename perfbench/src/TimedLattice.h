//===- perfbench/src/TimedLattice.h - Per-layer timing mixin ----*- C++ -*-===//
///
/// \file
/// Benchmark-side layer timing for the traced runs.  Timed<D> is the
/// domain or product class D itself with every virtual lattice operation
/// wrapped in a span, so a traced analysis builds Timed<AffineDomain>,
/// Timed<LogicalProduct>, ... where the plain run builds AffineDomain,
/// LogicalProduct, ...
///
/// It subclasses rather than wraps (the check/CheckedLattice.h pattern)
/// because a wrapping decorator cannot leave the memo structure alone:
/// LogicalLattice::entailsAllCached is non-virtual, so a wrapper with its
/// own memo off answers the analyzer's convergence checks atom by atom and
/// never touches the inner EntailAllCache, which changes cache hit and
/// miss counts.  A subclass keeps the same object, the same caches and the
/// same call sequence; spans only see the calls that reach the virtual
/// operation, i.e. memo misses and uncached calls.  Memo lookups are
/// therefore charged to the caller's layer.
///
/// Each layer (analysis, product, one per component domain) owns a
/// LayerClock.  Only the outermost call into a layer opens a span, so
/// re-entrant calls (meet -> isUnsatCached -> isUnsat) are not counted
/// twice.  A span's self time is its duration minus the spans of other
/// layers it encloses; the product's self time is therefore purification,
/// saturation and the Figure 6/7 logic, with component work subtracted.
///
/// A LayerClock belongs to one thread; the span stack is thread-local.
///
//===----------------------------------------------------------------------===//

#ifndef CAI_PERFBENCH_TIMEDLATTICE_H
#define CAI_PERFBENCH_TIMEDLATTICE_H

#include "theory/LogicalLattice.h"

#include <chrono>
#include <utility>
#include <vector>

namespace perfbench {

/// The operation a span is attributed to (the outermost one of its layer).
enum class Op : unsigned { Run, Join, Widen, Meet, ExistQuant, Entail, Other };
constexpr unsigned NumOps = 7;

/// Accumulated spans of one layer.
struct LayerClock {
  unsigned Depth = 0;
  unsigned long Calls = 0;     ///< Outermost calls.
  double Inclusive = 0;        ///< Seconds inside the layer.
  double Self = 0;             ///< Inclusive minus enclosed layers.
  double ByOp[NumOps] = {};    ///< Inclusive seconds by outermost op.
};

namespace detail {
struct Frame {
  double Child = 0;
};
inline std::vector<Frame> &frames() {
  thread_local std::vector<Frame> Stack;
  return Stack;
}
} // namespace detail

/// RAII span: records into \p C when it is the outermost call of C's layer.
class Span {
public:
  Span(LayerClock &C, Op O) : C(C), O(O), Outer(C.Depth++ == 0) {
    if (Outer) {
      detail::frames().push_back({});
      Start = std::chrono::steady_clock::now();
    }
  }
  ~Span() {
    --C.Depth;
    if (!Outer)
      return;
    double Dur = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - Start)
                     .count();
    std::vector<detail::Frame> &Stack = detail::frames();
    double Child = Stack.back().Child;
    Stack.pop_back();
    if (!Stack.empty())
      Stack.back().Child += Dur;
    ++C.Calls;
    C.Inclusive += Dur;
    C.Self += Dur - Child;
    C.ByOp[static_cast<unsigned>(O)] += Dur;
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  LayerClock &C;
  Op O;
  bool Outer;
  std::chrono::steady_clock::time_point Start;
};

/// The lattice class \p D with its virtual operations timed into a layer.
template <class D> class Timed final : public D {
public:
  template <class... Args>
  explicit Timed(LayerClock &C, Args &&...A)
      : D(std::forward<Args>(A)...), C(C) {}

  cai::Conjunction join(const cai::Conjunction &A,
                        const cai::Conjunction &B) const override {
    Span S(C, Op::Join);
    return D::join(A, B);
  }
  cai::Conjunction widen(const cai::Conjunction &Old,
                         const cai::Conjunction &New) const override {
    Span S(C, Op::Widen);
    return D::widen(Old, New);
  }
  cai::Conjunction meet(const cai::Conjunction &A,
                        const cai::Conjunction &B) const override {
    Span S(C, Op::Meet);
    return D::meet(A, B);
  }
  cai::Conjunction
  existQuant(const cai::Conjunction &E,
             const std::vector<cai::Term> &Vars) const override {
    Span S(C, Op::ExistQuant);
    return D::existQuant(E, Vars);
  }
  bool entails(const cai::Conjunction &E, const cai::Atom &A) const override {
    Span S(C, Op::Entail);
    return D::entails(E, A);
  }
  bool isUnsat(const cai::Conjunction &E) const override {
    Span S(C, Op::Entail);
    return D::isUnsat(E);
  }
  std::vector<std::pair<cai::Term, cai::Term>>
  impliedVarEqualities(const cai::Conjunction &E) const override {
    Span S(C, Op::Other);
    return D::impliedVarEqualities(E);
  }
  std::optional<cai::Term>
  alternate(const cai::Conjunction &E, cai::Term Var,
            const std::vector<cai::Term> &Avoid) const override {
    Span S(C, Op::Other);
    return D::alternate(E, Var, Avoid);
  }
  std::vector<std::pair<cai::Term, cai::Term>>
  alternateBatch(const cai::Conjunction &E,
                 const std::vector<cai::Term> &Targets) const override {
    Span S(C, Op::Other);
    return D::alternateBatch(E, Targets);
  }

private:
  LayerClock &C;
};

} // namespace perfbench

#endif // CAI_PERFBENCH_TIMEDLATTICE_H
