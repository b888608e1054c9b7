//===- tests/checked_lattice_test.cpp - Contract-checker tests ------------===//
///
/// \file
/// The online lattice-contract checker must (1) stay silent on correct
/// domains -- the whole tier-1 suite runs them through real analyses --
/// and (2) catch a deliberately broken operator, attributing the violation
/// to the exact engine step via the provenance context.  FaultInjection.h
/// provides the broken operators; this file stacks Checked(Broken(D)) and
/// asserts detection.
///
//===----------------------------------------------------------------------===//

#include "analysis/Analyzer.h"
#include "check/CheckedLattice.h"
#include "check/FaultInjection.h"
#include "domains/poly/PolyDomain.h"
#include "domains/uf/UFDomain.h"
#include "ir/ProgramParser.h"
#include "product/LogicalProduct.h"
#include "term/Parser.h"

#include <gtest/gtest.h>

using namespace cai;
using namespace cai::check;

namespace {

const char *LoopProgram = R"(
  x := 0;
  y := 0;
  while (x <= 7) {
    x := x + 1;
    if (*) {
      y := y + 1;
    }
  }
  assert(x <= 8);
)";

TEST(CheckedLatticeTest, CleanDomainProducesNoViolations) {
  TermContext Ctx;
  std::optional<Program> P = parseProgram(Ctx, LoopProgram);
  ASSERT_TRUE(P);

  PolyDomain Poly(Ctx);
  UFDomain UF(Ctx);
  LogicalProduct Product(Ctx, Poly, UF);
  CheckedLattice Checked(Product);

  AnalysisResult Plain = Analyzer(Product).run(*P);
  AnalysisResult Audited = Analyzer(Checked).run(*P);

  EXPECT_TRUE(Checked.violations().empty());
  EXPECT_GT(Checked.checksRun(), 0u) << "checker never actually checked";

  // The decorator must be semantically invisible.
  EXPECT_EQ(Plain.Converged, Audited.Converged);
  ASSERT_EQ(Plain.Invariants.size(), Audited.Invariants.size());
  for (size_t N = 0; N < Plain.Invariants.size(); ++N)
    EXPECT_TRUE(Plain.Invariants[N] == Audited.Invariants[N]) << N;
  ASSERT_EQ(Plain.Assertions.size(), Audited.Assertions.size());
  for (size_t I = 0; I < Plain.Assertions.size(); ++I)
    EXPECT_EQ(Plain.Assertions[I].Verified, Audited.Assertions[I].Verified);
}

TEST(CheckedLatticeTest, BrokenJoinIsCaughtAndAttributed) {
  TermContext Ctx;
  std::optional<Program> P = parseProgram(Ctx, LoopProgram);
  ASSERT_TRUE(P);

  PolyDomain Poly(Ctx);
  BrokenJoinLattice Broken(Poly);
  CheckedLattice Checked(Broken);

  obs::ProvenanceRecorder Recorder;
  obs::ProvenanceRecorder::install(&Recorder);
  Analyzer(Checked).run(*P);
  obs::ProvenanceRecorder::install(nullptr);

  ASSERT_FALSE(Checked.violations().empty())
      << "a join returning its left operand must violate the upper-bound "
         "contract";
  const CheckViolation &V = Checked.violations().front();
  EXPECT_EQ(V.Kind, CheckViolation::Contract::JoinUpperBound);
  EXPECT_EQ(V.Operation, "join");
  // The engine only joins when the incoming state is NOT already entailed
  // by the target, so the first broken join fires inside an engine step
  // and the provenance context must attribute it.
  EXPECT_TRUE(V.Where.Valid) << "violation not attributed to an engine step";
  std::string Text = Checked.describe(V);
  EXPECT_NE(Text.find("join-upper-bound"), std::string::npos) << Text;
  EXPECT_NE(Text.find("node"), std::string::npos) << Text;
}

TEST(CheckedLatticeTest, BreakFromDelaysTheFault) {
  TermContext Ctx;
  std::optional<Program> P = parseProgram(Ctx, LoopProgram);
  ASSERT_TRUE(P);

  PolyDomain Poly(Ctx);
  BrokenJoinLattice Broken(Poly, /*BreakFrom=*/1u << 30);
  CheckedLattice Checked(Broken);
  Analyzer(Checked).run(*P);
  EXPECT_TRUE(Checked.violations().empty())
      << "a break threshold never reached must behave like the clean domain";
  EXPECT_GT(Broken.joinCalls(), 0u);
}

TEST(CheckedLatticeTest, DirectOperationContracts) {
  TermContext Ctx;
  PolyDomain Poly(Ctx);
  CheckedLattice Checked(Poly);

  Conjunction A, B;
  A.add(*parseAtom(Ctx, "x <= 3"));
  B.add(*parseAtom(Ctx, "x <= 5"));

  // join/meet/widen/existQuant on a sound domain: silent.
  Checked.joinCached(A, B);
  Checked.meet(A, B);
  Checked.widen(A, B);
  Checked.existQuantCached(A, {Ctx.mkVar("x")});
  Checked.impliedVarEqualitiesCached(A);
  EXPECT_TRUE(Checked.violations().empty());
  EXPECT_GT(Checked.checksRun(), 0u);

  // Violations fire outside any engine step too, with Valid=false.
  BrokenJoinLattice Broken(Poly);
  CheckedLattice CheckedBroken(Broken);
  CheckedBroken.joinCached(A, B);
  ASSERT_FALSE(CheckedBroken.violations().empty());
  EXPECT_FALSE(CheckedBroken.violations().front().Where.Valid);
}

TEST(CheckedLatticeTest, SetCheckingDisablesAudit) {
  TermContext Ctx;
  PolyDomain Poly(Ctx);
  BrokenJoinLattice Broken(Poly);
  CheckedLattice Checked(Broken);
  Checked.setChecking(false);

  Conjunction A, B;
  A.add(*parseAtom(Ctx, "x <= 3"));
  B.add(*parseAtom(Ctx, "x <= 5"));
  Checked.joinCached(A, B);
  EXPECT_TRUE(Checked.violations().empty())
      << "disabled checker must not audit";
  EXPECT_EQ(Checked.checksRun(), 0u);
}

TEST(CheckedLatticeTest, StatsAndMemoPropagate) {
  TermContext Ctx;
  PolyDomain Poly(Ctx);
  CheckedLattice Checked(Poly);

  Checked.setMemoization(false);
  EXPECT_FALSE(Poly.memoizationEnabled());
  Checked.setMemoization(true);
  EXPECT_TRUE(Poly.memoizationEnabled());

  Conjunction A;
  A.add(*parseAtom(Ctx, "x <= 3"));
  Checked.joinCached(A, A);
  LatticeStats S;
  Checked.collectStats(S);
  EXPECT_GT(S.CacheMisses + S.CacheHits, 0u);
}

} // namespace
