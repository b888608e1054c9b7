//===- tests/analyzer_test.cpp - The abstract interpretation engine --------===//

#include "analysis/Analyzer.h"

#include "domains/affine/AffineDomain.h"
#include "domains/poly/PolyDomain.h"
#include "domains/uf/UFDomain.h"
#include "ir/ProgramParser.h"
#include "product/LogicalProduct.h"

#include "TestUtil.h"

#include <atomic>

using namespace cai;
using cai::test::A;

namespace {

class AnalyzerTest : public ::testing::Test {
protected:
  Program parse(const std::string &Source) {
    std::string Error;
    std::optional<Program> P = parseProgram(Ctx, Source, &Error);
    EXPECT_TRUE(P) << Error;
    return P ? *P : Program();
  }

  TermContext Ctx;
  AffineDomain Affine{Ctx};
  PolyDomain Poly{Ctx};
  UFDomain UF{Ctx};
};

/// A logical product that raises the run's cancel flag on entering a join
/// and counts the joins that still run to completion.
class CancelOnJoin final : public LogicalProduct {
public:
  CancelOnJoin(TermContext &Ctx, const LogicalLattice &A,
               const LogicalLattice &B, std::atomic<bool> &Flag)
      : LogicalProduct(Ctx, A, B), Flag(Flag) {}

  Conjunction join(const Conjunction &A, const Conjunction &B) const override {
    Flag = true;
    Conjunction R = LogicalProduct::join(A, B);
    ++Completed;
    return R;
  }

  std::atomic<bool> &Flag;
  mutable unsigned Completed = 0;
};

} // namespace

TEST_F(AnalyzerTest, StraightLineAffine) {
  Program P = parse("x := 1; y := x + 1; assert(y = 2); assert(y = x + 1);");
  AnalysisResult R = Analyzer(Affine).run(P);
  EXPECT_TRUE(R.Converged);
  ASSERT_EQ(R.Assertions.size(), 2u);
  EXPECT_TRUE(R.Assertions[0].Verified);
  EXPECT_TRUE(R.Assertions[1].Verified);
}

TEST_F(AnalyzerTest, SelfReferencingAssignment) {
  Program P = parse("x := 3; x := x + 1; assert(x = 4);");
  AnalysisResult R = Analyzer(Affine).run(P);
  EXPECT_TRUE(R.Assertions[0].Verified);
}

TEST_F(AnalyzerTest, HavocForgets) {
  Program P = parse("x := 1; y := x; x := *; assert(y = 1); assert(x = 1);");
  AnalysisResult R = Analyzer(Affine).run(P);
  EXPECT_TRUE(R.Assertions[0].Verified);
  EXPECT_FALSE(R.Assertions[1].Verified);
}

TEST_F(AnalyzerTest, BranchJoinAffine) {
  Program P = parse("if (*) { x := 1; y := 2; } else { x := 2; y := 3; } "
                    "assert(y = x + 1); assert(x = 1);");
  AnalysisResult R = Analyzer(Affine).run(P);
  EXPECT_TRUE(R.Assertions[0].Verified);
  EXPECT_FALSE(R.Assertions[1].Verified);
}

TEST_F(AnalyzerTest, LoopInvariantAffine) {
  Program P = parse("x := 0; y := 0; while (*) { x := x + 1; y := y + 2; } "
                    "assert(y = 2*x);");
  AnalysisResult R = Analyzer(Affine).run(P);
  EXPECT_TRUE(R.Converged);
  EXPECT_TRUE(R.Assertions[0].Verified);
}

TEST_F(AnalyzerTest, LoopWithConditionPoly) {
  Program P = parse("x := 0; while (x <= 9) { x := x + 1; } "
                    "assert(10 <= x); assert(0 <= x);");
  AnalysisResult R = Analyzer(Poly).run(P);
  EXPECT_TRUE(R.Converged);
  EXPECT_TRUE(R.Assertions[0].Verified); // Exit condition.
  EXPECT_TRUE(R.Assertions[1].Verified); // Widened invariant keeps 0 <= x.
}

TEST_F(AnalyzerTest, NarrowingRecoversLoopExitBound) {
  Program P = parse("x := 0; while (x <= 9) { x := x + 1; } "
                    "assert(x = 10);");
  // With the default descending pass the widened 0 <= x is refined back to
  // 0 <= x <= 10 at the head, so the exit pins x = 10...
  AnalysisResult R = Analyzer(Poly).run(P);
  EXPECT_TRUE(R.Assertions[0].Verified);
  // ...and without narrowing it cannot be.
  AnalyzerOptions NoNarrow;
  NoNarrow.NarrowingPasses = 0;
  AnalysisResult R0 = Analyzer(Poly, NoNarrow).run(P);
  EXPECT_FALSE(R0.Assertions[0].Verified);
}

TEST_F(AnalyzerTest, AssumeRefines) {
  Program P = parse("x := *; assume(x = 5); assert(x = 5);");
  AnalysisResult R = Analyzer(Affine).run(P);
  EXPECT_TRUE(R.Assertions[0].Verified);
}

TEST_F(AnalyzerTest, ContradictoryAssumesGiveBottom) {
  Program P = parse("x := *; assume(x = 5); assume(x = 6); assert(x = 7);");
  AnalysisResult R = Analyzer(Affine).run(P);
  // Unreachable point: everything is (vacuously) verified.
  EXPECT_TRUE(R.Assertions[0].Verified);
}

TEST_F(AnalyzerTest, UFLoopStabilizes) {
  Program P = parse("x := a; y := a; while (*) { x := F(x); y := F(y); } "
                    "assert(x = y);");
  AnalysisResult R = Analyzer(UF).run(P);
  EXPECT_TRUE(R.Converged);
  EXPECT_TRUE(R.Assertions[0].Verified);
}

TEST_F(AnalyzerTest, UFGrowingTermsNeedWidening) {
  // x := F(x) grows terms forever; widening must still converge.
  Program P = parse("x := a; while (*) { x := F(x); } assert(x = a);");
  UFDomain Shallow(Ctx, {}, /*WidenDepthCap=*/4);
  AnalysisResult R = Analyzer(Shallow).run(P);
  EXPECT_TRUE(R.Converged);
  EXPECT_FALSE(R.Assertions[0].Verified);
}

TEST_F(AnalyzerTest, MixedInvariantNeedsLogicalProduct) {
  LogicalProduct Logical(Ctx, Affine, UF);
  Program P = parse("d1 := 3; d2 := F(4); while (*) { d1 := F(1 + d1); "
                    "d2 := F(d2 + 1); } assert(d2 = F(d1 + 1));");
  AnalysisResult R = Analyzer(Logical).run(P);
  EXPECT_TRUE(R.Converged);
  EXPECT_TRUE(R.Assertions[0].Verified);
  // The affine and UF domains alone both fail.
  EXPECT_FALSE(Analyzer(Affine).run(P).Assertions[0].Verified);
  EXPECT_FALSE(Analyzer(UF).run(P).Assertions[0].Verified);
}

TEST_F(AnalyzerTest, NestedLoops) {
  Program P = parse("x := 0; s := 0; while (*) { y := 0; while (*) { "
                    "y := y + 1; s := s + 1; } x := x + 1; } "
                    "assert(0 = 0);");
  AnalysisResult R = Analyzer(Affine).run(P);
  EXPECT_TRUE(R.Converged);
  EXPECT_TRUE(R.Assertions[0].Verified);
}

TEST_F(AnalyzerTest, StatsAreCollected) {
  Program P = parse("x := 0; while (*) { x := x + 1; } assert(0 = 0);");
  AnalysisResult R = Analyzer(Affine).run(P);
  EXPECT_GT(R.Stats.Transfers, 0u);
  EXPECT_GT(R.Stats.Joins, 0u);
  EXPECT_GT(R.Stats.MaxNodeUpdates, 0u);
}

TEST_F(AnalyzerTest, ParserRejectsGarbage) {
  std::string Error;
  EXPECT_FALSE(parseProgram(Ctx, "x := ;", &Error));
  EXPECT_FALSE(Error.empty());
  EXPECT_FALSE(parseProgram(Ctx, "while (x) { }", &Error)); // Not an atom.
  EXPECT_FALSE(parseProgram(Ctx, "if (*) { x := 1;", &Error));
  EXPECT_FALSE(parseProgram(Ctx, "assert(x = 1)", &Error)); // Missing ';'.
}

TEST_F(AnalyzerTest, ParserHandlesCommentsAndNegation) {
  Program P = parse("// initialize\n x := 0;\n"
                    "while (!(x >= 10)) { x := x + 1; } // bump\n"
                    "assert(x >= 10); assert(x >= 0);");
  AnalysisResult R = Analyzer(Poly).run(P);
  EXPECT_TRUE(R.Converged);
  EXPECT_TRUE(R.Assertions[0].Verified);
  EXPECT_TRUE(R.Assertions[1].Verified);
}

TEST_F(AnalyzerTest, IfElseConditionsRefineBothArms) {
  Program P = parse("x := *; if (x <= 0) { y := 0 - x; } else { y := x; } "
                    "assert(0 <= y);");
  AnalysisResult R = Analyzer(Poly).run(P);
  // then: x <= 0, y = -x >= 0; else: x >= 1, y = x >= 1.
  EXPECT_TRUE(R.Assertions[0].Verified);
}

TEST_F(AnalyzerTest, CancelInsideAStepStopsThatStep) {
  // A cancel request that arrives during a lattice operation stops it at
  // the product's cancel point, not at the next step boundary: the join
  // that saw the flag go up never completes.
  std::atomic<bool> Flag{false};
  CancelOnJoin Product(Ctx, Affine, UF, Flag);
  Program P = parse("x := 0; y := F(x); while (*) { x := x + 1; y := F(x); } "
                    "assert(y = F(x));");
  AnalyzerOptions Opts;
  Opts.CancelFlag = &Flag;
  AnalysisResult R = Analyzer(Product, Opts).run(P);
  EXPECT_TRUE(Flag.load());
  EXPECT_EQ(Product.Completed, 0u);
  EXPECT_TRUE(R.Cancelled);
  EXPECT_FALSE(R.Converged);
  ASSERT_EQ(R.Assertions.size(), 1u);
  EXPECT_FALSE(R.Assertions[0].Verified);
}
