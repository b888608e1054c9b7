//===- tests/lint_soundness_test.cpp - Lint vs concrete oracle -------------===//
///
/// The lint tier's soundness contract, tested differentially against the
/// concrete interpreter over generated programs: the hard claims the lint
/// passes make must never contradict an actual execution.
///
///   * unreachable-code: no node any concrete trace visits may be flagged.
///   * dead-store: no store a concrete trace executes whose value is
///     subsequently read (before being overwritten) may be flagged.
///   * branch-always-true / -false: no trace may take a branch the lint
///     called never-taken, and every time a trace stands at a node whose
///     condition was called always-true, that condition must evaluate
///     true.
///
/// The "possible-*" findings (division, bounds, uninitialized reads)
/// deliberately carry no such guarantee -- they report unproven safety --
/// so they are not checked here.
///
/// Any contradiction is a hard test failure, and the offending program
/// text and seed are printed for replay.
///
//===----------------------------------------------------------------------===//

#include "analysis/Analyzer.h"
#include "interp/ConcreteInterp.h"
#include "interp/ProgramGen.h"
#include "ir/ProgramParser.h"
#include "lint/Lint.h"
#include "service/Driver.h"
#include "term/Printer.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

using namespace cai;

namespace {

/// One program's differential trial: analyze, lint, then replay concrete
/// traces and assert no hard finding contradicts what actually ran.
void checkProgram(const std::string &Source, const std::string &Spec,
                  uint64_t ProgramSeed, unsigned Traces) {
  service::ProgramSetup S;
  ASSERT_EQ(S.prepare(Spec, "", Source), service::ProgramSetup::Status::Ok)
      << S.error() << "\n" << Source;
  TermContext &Ctx = S.Ctx;
  const Program *P = &S.Prog;
  LogicalLattice *Domain = S.Domain;

  AnalysisResult R = Analyzer(*Domain).run(*P);
  if (!R.Converged)
    return; // No findings are derived from a truncated fixpoint.

  std::vector<lint::LintFinding> Findings =
      lint::runLint(Ctx, *P, R, *Domain);

  // Index the hard claims.  A dead-store finding names (source node,
  // variable); in this IR an assign edge's source node identifies the
  // edge, so the pair is an exact edge reference.
  std::set<NodeId> ClaimedUnreachable;
  std::set<std::pair<NodeId, Term>> ClaimedDead;
  std::map<NodeId, std::vector<size_t>> AlwaysTrue; // Node -> edge indices.
  std::set<size_t> AlwaysFalse;                     // Edge indices.
  const auto &Edges = P->edges();
  for (const lint::LintFinding &F : Findings) {
    if (F.Rule == "unreachable-code")
      ClaimedUnreachable.insert(F.Node);
    if (F.Rule == "dead-store")
      for (size_t I = 0; I < Edges.size(); ++I)
        if (Edges[I].From == F.Node && Edges[I].Act.Kind == ActionKind::Assign)
          ClaimedDead.emplace(F.Node, Edges[I].Act.Var);
    if (F.Rule == "branch-always-true" || F.Rule == "branch-always-false")
      for (size_t I = 0; I < Edges.size(); ++I) {
        if (Edges[I].From != F.Node ||
            Edges[I].Act.Kind != ActionKind::Assume)
          continue;
        std::string Cond = toString(Ctx, Edges[I].Act.Cond);
        if (F.Message.find("'" + Cond + "'") == std::string::npos)
          continue;
        if (F.Rule == "branch-always-true")
          AlwaysTrue[F.Node].push_back(I);
        else
          AlwaysFalse.insert(I);
      }
  }

  // Per-node variable reads by assertions (the checker evaluates the
  // asserted fact at its node, which reads its variables).
  std::map<NodeId, std::vector<Term>> AssertReads;
  for (const Assertion &A : P->assertions())
    A.Fact.collectVars(AssertReads[A.Node]);

  auto Replay = [&](uint64_t Seed) {
    // Pending stores: variable -> source node of the last executed,
    // not-yet-read assign edge.  A read before the next overwrite
    // refutes any dead-store claim on that edge.
    std::map<Term, NodeId, TermStructLess> Pending;
    bool Contradiction = false;
    std::string What;

    auto Read = [&](Term V) {
      auto It = Pending.find(V);
      if (It == Pending.end())
        return;
      if (ClaimedDead.count({It->second, V})) {
        Contradiction = true;
        What = "dead-store of '" + toString(Ctx, V) + "' at node " +
               std::to_string(It->second) + " was read";
      }
      Pending.erase(It);
    };

    interp::TraceOptions TOpts;
    interp::runTrace(
        Ctx, *P, Seed, TOpts,
        [&](NodeId N, const interp::Env &E, interp::ConcreteModel &M) {
          if (ClaimedUnreachable.count(N)) {
            Contradiction = true;
            What = "unreachable-code at node " + std::to_string(N) +
                   " was visited";
            return false;
          }
          auto It = AssertReads.find(N);
          if (It != AssertReads.end())
            for (Term V : It->second)
              Read(V);
          // Standing at a node with an always-true branch: the condition
          // must hold in this state.
          auto AT = AlwaysTrue.find(N);
          if (AT != AlwaysTrue.end())
            for (size_t EdgeIdx : AT->second) {
              bool Ok = true;
              if (!M.evalCond(Edges[EdgeIdx].Act.Cond, E, Ok) && Ok) {
                Contradiction = true;
                What = "branch-always-true at node " + std::to_string(N) +
                       " evaluated false";
                return false;
              }
            }
          return !Contradiction;
        },
        [&](size_t EdgeIdx, const interp::Env &, interp::ConcreteModel &) {
          const Edge &E = Edges[EdgeIdx];
          if (AlwaysFalse.count(EdgeIdx)) {
            Contradiction = true;
            What = "branch-always-false edge from node " +
                   std::to_string(E.From) + " was taken";
            return false;
          }
          // Every variable the edge's action mentions is read before the
          // action writes; the walker also evaluated this assume cond.
          std::vector<Term> Used;
          if (E.Act.Kind == ActionKind::Assign)
            collectVars(E.Act.Value, Used);
          if (E.Act.Kind == ActionKind::Assume && !E.Act.Cond.isBottom())
            for (const Atom &A : E.Act.Cond.atoms())
              A.collectVars(Used);
          for (Term V : Used)
            Read(V);
          // The action's write starts a new pending store (assigns) or
          // kills the old one (havocs).
          if (E.Act.Kind == ActionKind::Assign)
            Pending[E.Act.Var] = E.From;
          else if (E.Act.Kind == ActionKind::Havoc)
            Pending.erase(E.Act.Var);
          return !Contradiction;
        });

    EXPECT_FALSE(Contradiction)
        << What << "\nspec: " << Spec << "  program seed: " << ProgramSeed
        << "  trace seed: " << Seed << "\n"
        << Source;
  };

  for (unsigned T = 0; T < Traces; ++T)
    Replay(ProgramSeed * 1000003 + T);
}

} // namespace

// The main sweep: 220 generated programs (past the 200-program bar the
// acceptance criteria set), a handful of concrete traces each, under a
// fast product domain.  Shapes mirror the soundness-oracle sweep:
// branches, nested loops, function applications and theory atoms.
TEST(LintSoundness, GeneratedSweepAffineUf) {
  for (uint64_t Seed = 1; Seed <= 220; ++Seed) {
    interp::GenOptions GOpts;
    GOpts.Seed = Seed;
    GOpts.Vars = 3 + Seed % 3;
    GOpts.MaxStmts = 8 + Seed % 5;
    GOpts.MaxDepth = 2;
    GOpts.MaxLoops = 2;
    checkProgram(interp::generateProgram(GOpts), "logical:affine,uf", Seed,
                 /*Traces=*/4);
  }
}

// A smaller polyhedra sweep: tighter invariants make always/unreachable
// claims far more frequent, which is where contradictions would surface.
TEST(LintSoundness, GeneratedSweepPoly) {
  for (uint64_t Seed = 500; Seed < 540; ++Seed) {
    interp::GenOptions GOpts;
    GOpts.Seed = Seed;
    GOpts.MaxStmts = 8;
    checkProgram(interp::generateProgram(GOpts), "logical:poly,uf", Seed,
                 /*Traces=*/4);
  }
}

// Array shapes drive the bounds checks and the overlay model; the hard
// claims must hold there too.
TEST(LintSoundness, GeneratedSweepArrays) {
  for (uint64_t Seed = 900; Seed < 930; ++Seed) {
    interp::GenOptions GOpts;
    GOpts.Seed = Seed;
    GOpts.Arrays = true;
    checkProgram(interp::generateProgram(GOpts), "logical:affine,arrays",
                 Seed, /*Traces=*/4);
  }
}

// Hand-written adversarial shapes: stores that look dead but are read in
// loop back-edges, branches that are reachable only via a second
// iteration, and a genuinely dead region that no trace may enter.
TEST(LintSoundness, HandWrittenShapes) {
  const char *Programs[] = {
      // Loop-carried read: x's store in the body is read next iteration.
      "x := 0;\n"
      "while (x <= 5) {\n"
      "  x := x + 1;\n"
      "}\n"
      "assert(6 <= x);\n",
      // The then-branch is reachable only when the havocked input is
      // small; both branches execute across traces.
      "if (a <= 0) {\n"
      "  b := 1;\n"
      "} else {\n"
      "  b := 2;\n"
      "}\n"
      "assert(1 <= b);\n",
      // A genuinely dead region behind a contradictory guard.
      "x := 3;\n"
      "if (x <= 2) {\n"
      "  y := 1;\n"
      "}\n"
      "z := x;\n"
      "assert(z <= 3);\n",
  };
  uint64_t Seed = 42;
  for (const char *Src : Programs)
    checkProgram(Src, "logical:poly,uf", Seed++, /*Traces=*/16);
}
