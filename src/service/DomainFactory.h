//===- service/DomainFactory.h - --domain spec parsing ----------*- C++ -*-===//
///
/// \file
/// Builds a LogicalLattice tree from a `--domain` spec string, owning every
/// component so products outlive their children.  Factored out of
/// cai-analyze so the analysis service's workers (which build one isolated
/// domain instance per job) and every front-end share one grammar:
///
///   spec := affine | poly | uf | parity | sign | lists | arrays
///         | direct:<spec>,<spec> | reduced:<spec>,<spec>
///         | logical:<spec>,<spec> | '(' spec ')'
///
/// Parentheses and products nest at most MaxDomainNesting levels deep.
///
//===----------------------------------------------------------------------===//

#ifndef CAI_SERVICE_DOMAINFACTORY_H
#define CAI_SERVICE_DOMAINFACTORY_H

#include "theory/LogicalLattice.h"

#include <memory>
#include <string>
#include <vector>

namespace cai {

class ListDomain;

namespace service {

/// Deepest nesting of parentheses and products a --domain spec may use.
/// The parser recurses once per level, and every product level adds a
/// layer to each lattice operation, so an unbounded spec could exhaust the
/// stack of a server thread; the deepest spec in the examples nests three.
constexpr unsigned MaxDomainNesting = 16;

/// Owns every lattice built while parsing a --domain spec (components must
/// outlive the products referencing them).  One factory per analysis: the
/// built lattices carry memoization state and must not be shared across
/// threads.
class DomainFactory {
public:
  explicit DomainFactory(TermContext &Ctx);
  ~DomainFactory();

  /// Parses \p Spec in full.  Returns nullptr and sets error() on failure
  /// (including trailing input).  The returned lattice is owned by the
  /// factory.
  LogicalLattice *build(const std::string &Spec);

  /// Adds \p L to the owned set and returns it; used by callers stacking
  /// decorators (checkers, fault injection) on the built domain.
  LogicalLattice *keep(std::unique_ptr<LogicalLattice> L);

  const std::string &error() const { return Error; }

private:
  /// Parses one spec at \p Depth levels of nesting.
  LogicalLattice *parse(const std::string &S, size_t &Pos, unsigned Depth);

  std::unique_ptr<LogicalLattice> makeAffine();
  std::unique_ptr<LogicalLattice> makePoly();
  std::unique_ptr<LogicalLattice> makeUF();
  std::unique_ptr<LogicalLattice> makeParity();
  std::unique_ptr<LogicalLattice> makeSign();
  std::unique_ptr<LogicalLattice> makeArrays();
  std::unique_ptr<LogicalLattice> makeLists();

  TermContext &Ctx;
  std::vector<std::unique_ptr<LogicalLattice>> Owned;
  /// Non-null once a lists domain participates: UF cedes car/cdr/cons so
  /// nested products dispatch them correctly.
  std::unique_ptr<ListDomain> ListsInstance;
  std::string Error;
};

} // namespace service
} // namespace cai

#endif // CAI_SERVICE_DOMAINFACTORY_H
