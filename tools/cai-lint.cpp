//===- tools/cai-lint.cpp - Standalone semantic lint driver ----------------===//
///
/// Runs the abstract interpreter to a fixpoint, then the semantic lint
/// passes (docs/LINT.md) over the stabilized invariants, and reports the
/// findings.  Unlike cai-analyze --lint, the exit code reflects the lint
/// verdict, so the tool drops into CI pipelines directly.
///
///   cai-lint [options] <program.imp>
///
///   --domain=<spec>   domain combination (cai-analyze syntax; default
///                     logical:poly,uf)
///   --checks=SEL      comma-separated subset of unreachable, branch,
///                     divzero, bounds, deadstore, uninit (default: all)
///   --format=text|sarif
///                     human-readable lines (default) or a SARIF 2.1.0 log
///   --baseline=FILE   suppress findings whose key appears in FILE
///   --write-baseline=FILE
///                     write the current findings as a baseline file and
///                     exit 0 (nothing is reported)
///   --encode=comm|arity
///                     apply a Section 5 symbol encoding before analysis
///   --widening-delay=N
///   --no-memo         disable fixpoint memoization
///
/// Exit code: 0 if no findings survive the baseline, 1 if any finding is
/// reported, 2 on usage/parse/I/O errors, 3 if the fixpoint did not
/// converge (the invariants cannot be trusted, so no findings are
/// derived).
///
//===----------------------------------------------------------------------===//

#include "analysis/Analyzer.h"
#include "lint/Lint.h"
#include "service/Driver.h"

#include <cstdio>
#include <fstream>
#include <string>

using namespace cai;
using namespace cai::service;

namespace {

const char *const Usage =
    "usage: cai-lint [--domain=<spec>] [--checks=<sel,...>]\n"
    "                [--format=text|sarif] [--baseline=FILE]\n"
    "                [--write-baseline=FILE] [--encode=comm|arity]\n"
    "                [--widening-delay=N] [--no-memo]\n"
    "                <program.imp>\n"
    "checks:    unreachable branch divzero bounds deadstore uninit\n"
    "exit codes: 0 no findings, 1 findings reported,\n"
    "            2 usage/parse/I/O error, 3 fixpoint did not converge\n";

} // namespace

int main(int Argc, char **Argv) {
  std::string DomainSpec = "logical:poly,uf";
  std::string Encode;
  std::string Format = "text";
  std::string BaselinePath;
  std::string WriteBaselinePath;
  lint::LintOptions LintOpts;
  AnalyzerOptions Opts;

  OptionTable T(Usage);
  T.text("domain", DomainSpec);
  T.text("checks", LintOpts.Checks, false, lintSelectorError);
  T.choice("format", Format, {"text", "sarif"});
  T.path("baseline", BaselinePath);
  T.path("write-baseline", WriteBaselinePath);
  T.choice("encode", Encode, encodeNames());
  T.number("widening-delay", Opts.WideningDelay);
  T.flag("no-memo", Opts.Memoize, false);
  std::vector<std::string> Args;
  if (std::optional<int> Exit = T.parse(Argc, Argv, &Args))
    return *Exit;
  std::string Path = Args.empty() ? "" : Args.back();
  if (Path.empty()) {
    T.printUsage();
    return 2;
  }

  std::string Text, BaselineText;
  if (!readFile(Path, Text) ||
      (!BaselinePath.empty() && !readFile(BaselinePath, BaselineText)))
    return 2;

  ProgramSetup Setup;
  switch (Setup.prepare(DomainSpec, Encode, Text)) {
  case ProgramSetup::Status::Ok:
    break;
  case ProgramSetup::Status::BadDomain:
    std::fprintf(stderr, "error: bad --domain spec: %s\n",
                 Setup.error().c_str());
    return 2;
  case ProgramSetup::Status::ParseError:
    std::fprintf(stderr, "error: %s: %s\n", Path.c_str(),
                 Setup.error().c_str());
    return 2;
  }

  AnalysisResult R = Analyzer(*Setup.Domain, Opts).run(Setup.Prog);
  if (!R.Converged) {
    std::fprintf(stderr, "error: fixpoint did not converge; the invariants "
                         "cannot justify lint findings\n");
    return 3;
  }

  std::vector<lint::LintFinding> Findings = lint::applyBaseline(
      lint::runLint(Setup.Ctx, Setup.Prog, R, *Setup.Domain, LintOpts),
      lint::parseBaseline(BaselineText));

  if (!WriteBaselinePath.empty()) {
    std::ofstream BOut(WriteBaselinePath);
    if (!BOut) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   WriteBaselinePath.c_str());
      return 2;
    }
    BOut << lint::renderBaseline(Findings);
    std::fprintf(stderr, "baseline: %zu finding%s -> %s\n", Findings.size(),
                 Findings.size() == 1 ? "" : "s", WriteBaselinePath.c_str());
    return 0;
  }

  if (Format == "sarif")
    std::printf("%s\n", lint::renderSarif(Findings, Path).c_str());
  else
    std::fputs(lint::renderText(Findings, Path).c_str(), stdout);
  return Findings.empty() ? 0 : 1;
}
