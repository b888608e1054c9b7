//===- product/DirectProduct.cpp - Component-wise combination --------------===//

#include "product/DirectProduct.h"

#include <algorithm>

using namespace cai;

// Every operation hands the raw conjunction to both components.  Each
// component reads the atoms it understands (treating foreign subterms as
// opaque, exactly as the stand-alone analyses would) and the results are
// conjoined -- no information ever flows between the components, which is
// the defining property of the direct product.

Conjunction DirectProduct::join(const Conjunction &A,
                                const Conjunction &B) const {
  if (A.isBottom())
    return B;
  if (B.isBottom())
    return A;
  return L1.joinCached(A, B).meet(L2.joinCached(A, B));
}

Conjunction DirectProduct::existQuant(const Conjunction &E,
                                      const std::vector<Term> &Vars) const {
  if (E.isBottom())
    return E;
  return L1.existQuantCached(E, Vars).meet(L2.existQuantCached(E, Vars));
}

bool DirectProduct::entails(const Conjunction &E, const Atom &A) const {
  return L1.entailsCached(E, A) || L2.entailsCached(E, A);
}

bool DirectProduct::isUnsat(const Conjunction &E) const {
  return L1.isUnsatCached(E) || L2.isUnsatCached(E);
}

std::vector<std::pair<Term, Term>>
DirectProduct::impliedVarEqualities(const Conjunction &E) const {
  std::vector<std::pair<Term, Term>> Out = L1.impliedVarEqualitiesCached(E);
  std::vector<std::pair<Term, Term>> Second = L2.impliedVarEqualitiesCached(E);
  Out.insert(Out.end(), Second.begin(), Second.end());
  std::sort(Out.begin(), Out.end(), [](const auto &A, const auto &B) {
    if (int D = structuralCompare(A.first, B.first))
      return D < 0;
    return structuralCompare(A.second, B.second) < 0;
  });
  Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  return Out;
}

std::optional<Term>
DirectProduct::alternate(const Conjunction &E, Term Var,
                         const std::vector<Term> &Avoid) const {
  if (std::optional<Term> T = L1.alternate(E, Var, Avoid))
    return T;
  return L2.alternate(E, Var, Avoid);
}

Conjunction DirectProduct::widen(const Conjunction &Old,
                                 const Conjunction &New) const {
  if (Old.isBottom())
    return New;
  if (New.isBottom())
    return Old;
  return L1.widen(Old, New).meet(L2.widen(Old, New));
}
