//===- tools/cai-batch.cpp - Batch analysis front end ----------------------===//
///
/// Runs a batch of analyses through the sharded scheduler and prints one
/// deterministic JSON result line per job, sorted by job id.
///
///   cai-batch [options] [program.imp | directory]...
///
/// Job sources (combine freely; ids are assigned in submission order):
///   <program.imp>     one job per file argument
///   <directory>       one job per *.imp file underneath, sorted by path
///   --manifest=FILE   JSON-lines manifest; each line is an analyze request
///                     (see docs/SERVICE.md): {"name":...,"program":"..."} or
///                     {"program_file":"path", "domain":..., "options":{...}}.
///                     program_file paths resolve relative to the working
///                     directory.
///   --gen=N           N generated programs (interp::ProgramGen with nested
///                     function composition, MaxFnDepth 3)
///   --gen-seed=S      base seed for --gen (job K uses seed S+K; default 1)
///
/// Options for positional/--gen jobs (manifest entries carry their own):
///   --domain=<spec>   same grammar as cai-analyze (default logical:poly,uf)
///   --encode=comm|arity
///   --timeout-ms=N    per-job cooperative deadline
///   --lint[=sel]      run the lint passes after each fixpoint; result lines
///                     gain a "findings" array (sel as in cai-lint --checks)
///   --no-memo         disable transfer memoization (for determinism tests)
///
/// Scheduler:
///   --jobs=N          worker threads (default 1, at most 256)
///   --cache-bytes=N   result-cache byte budget (default 64 MiB, 0 disables)
///   --persist-dir=DIR attach the disk cache tier: results append to a
///                     checksummed record log and survive across runs
///                     (replayed into the memory cache on startup)
///   --persist-budget=N  on-disk byte budget, enforced by log compaction
///                     (0 = unbounded)
///   --repeat=N        submit the whole job list N times, waiting for the
///                     batch to drain between passes (so pass 2+ exercises
///                     the warm cache deterministically; default 1)
///   --stats           print a summary JSON line to stderr at the end
///   --trace-out=FILE  merged Chrome trace across worker shards
///   --metrics-out=FILE merged metrics (shard sums) across shards
///   --metrics-format=json|prom  --metrics-out format (default json)
///
/// Telemetry (wall-clock channel; stdout result bytes are unaffected):
///   --telemetry-out=FILE  enable lifecycle telemetry, write the report
///                     JSON line (per-phase latency percentiles, queue
///                     depth, worker utilization, cache hit rates, slow
///                     jobs) to FILE ('-' for stderr)
///   --slow-ms=N       jobs slower than N ms get an exemplar engine trace
///   --exemplar-dir=DIR  where slow-job traces go (Perfetto-loadable)
///   --event-log=FILE  append the structured JSON-lines event log
///
/// Output lines carry no timing and fields in a fixed order, so two runs
/// over the same inputs are byte-identical regardless of --jobs (the
/// batch-determinism test compares `--jobs 8` against `--jobs 1`).  The
/// "cached" field is deterministic provided the job list has no duplicate
/// fingerprints within one pass (duplicates may race the cache under
/// --jobs > 1; --repeat passes are safe because of the drain barrier).
///
/// Exit code: 0 if every job's status is "verified", 1 if any job failed
/// verification (assertion failures, non-convergence, timeouts, errors),
/// 2 on usage or I/O errors.
///
//===----------------------------------------------------------------------===//

#include "interp/ProgramGen.h"
#include "service/Driver.h"
#include "service/Protocol.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace cai;
using namespace cai::service;

namespace {

const char *const Usage =
    "usage: cai-batch [options] [program.imp | directory]...\n"
    "  --manifest=FILE    JSON-lines job manifest\n"
    "  --gen=N            N generated programs  --gen-seed=S  base seed\n"
    "  --domain=<spec>    domain for positional/--gen jobs\n"
    "  --encode=comm|arity  --timeout-ms=N  per-job options\n"
    "  --lint[=sel]       lint each job (sel as in cai-lint --checks)\n"
    "  --no-memo          disable transfer memoization\n"
    "  --jobs=N           worker threads (default 1)\n"
    "  --cache-bytes=N    result-cache budget (default 64 MiB, 0 = off)\n"
    "  --persist-dir=DIR  disk cache tier (survives across runs)\n"
    "  --persist-budget=N on-disk byte budget (0 = unbounded)\n"
    "  --repeat=N         run the job list N times (warm-cache passes)\n"
    "  --stats            summary JSON line on stderr\n"
    "  --trace-out=FILE   merged Chrome trace    --metrics-out=FILE\n"
    "  --metrics-format=json|prom   --metrics-out format\n"
    "  --telemetry-out=FILE  lifecycle latency report ('-' = stderr)\n"
    "  --slow-ms=N        exemplar traces for jobs slower than N ms\n"
    "  --exemplar-dir=DIR --event-log=FILE\n"
    "exit codes: 0 all verified, 1 some job failed, 2 usage/I/O error\n";

} // namespace

int main(int Argc, char **Argv) {
  std::vector<std::string> Paths;
  std::string Manifest;
  std::string TelemetryOut;
  JobOptions Defaults;
  uint64_t Gen = 0;
  uint64_t GenSeed = 1;
  uint64_t Repeat = 1;
  bool ShowStats = false;
  ServiceHost Host;

  OptionTable T(Usage);
  T.path("manifest", Manifest);
  T.number("gen", Gen);
  T.number("gen-seed", GenSeed);
  T.text("domain", Defaults.DomainSpec);
  T.choice("encode", Defaults.Encode, encodeNames());
  T.number("timeout-ms", Defaults.TimeoutMs, 0, MaxTimeoutMs);
  T.text("lint", Defaults.LintChecks, /*Bare=*/true, lintSelectorError);
  T.flag("no-memo", Defaults.Memoize, false);
  T.number("repeat", Repeat, 1);
  T.flag("stats", ShowStats);
  T.path("telemetry-out", TelemetryOut);
  Host.addOptions(T);
  if (std::optional<int> Exit = T.parse(Argc, Argv, &Paths))
    return *Exit;
  Defaults.Lint = T.given("lint");

  // Assemble the job list (one pass; --repeat resubmits it).
  std::vector<JobSpec> Batch;
  uint64_t NextId = 0;

  for (const std::string &Path : Paths) {
    std::error_code EC;
    std::vector<std::string> Files;
    if (std::filesystem::is_directory(Path, EC)) {
      for (const auto &Entry :
           std::filesystem::recursive_directory_iterator(Path, EC))
        if (Entry.is_regular_file() && Entry.path().extension() == ".imp")
          Files.push_back(Entry.path().string());
      std::sort(Files.begin(), Files.end());
      if (Files.empty()) {
        std::fprintf(stderr, "error: no .imp files under '%s'\n",
                     Path.c_str());
        return 2;
      }
    } else {
      Files.push_back(Path);
    }
    for (const std::string &File : Files) {
      JobSpec Spec;
      Spec.Id = NextId++;
      Spec.Name = File;
      Spec.Opts = Defaults;
      if (!readFile(File, Spec.ProgramText))
        return 2;
      Batch.push_back(std::move(Spec));
    }
  }

  if (!Manifest.empty()) {
    std::string ManifestText;
    if (!readFile(Manifest, ManifestText))
      return 2;
    std::istringstream In(ManifestText);
    unsigned LineNo = 0;
    for (std::string Line; std::getline(In, Line);) {
      ++LineNo;
      if (Line.find_first_not_of(" \t\r") == std::string::npos)
        continue;
      std::string Error;
      std::optional<Request> Req = parseRequest(Line, NextId, &Error);
      if (!Req || Req->Command != Request::Kind::Analyze) {
        std::fprintf(stderr, "error: %s:%u: %s\n", Manifest.c_str(), LineNo,
                     Req ? "only analyze entries are valid in a manifest"
                         : Error.c_str());
        return 2;
      }
      Req->Spec.Id = NextId++; // Manifest ids are positional.
      if (!Req->ProgramFile.empty() &&
          !readFile(Req->ProgramFile, Req->Spec.ProgramText)) {
        // readFile already named the missing file; add which manifest
        // entry asked for it so a long manifest is debuggable.
        std::fprintf(stderr,
                     "error: %s:%u: cannot open program_file '%s'\n",
                     Manifest.c_str(), LineNo, Req->ProgramFile.c_str());
        return 2;
      }
      Batch.push_back(std::move(Req->Spec));
    }
  }

  for (uint64_t K = 0; K < Gen; ++K) {
    interp::GenOptions GO;
    GO.Seed = GenSeed + K;
    GO.MaxFnDepth = 3; // Exercise nested composition (F(G(a, b)), towers).
    JobSpec Spec;
    Spec.Id = NextId++;
    char Name[32];
    std::snprintf(Name, sizeof(Name), "gen/%04llu",
                  static_cast<unsigned long long>(K));
    Spec.Name = Name;
    Spec.ProgramText = interp::generateProgram(GO);
    Spec.Opts = Defaults;
    Batch.push_back(std::move(Spec));
  }

  if (Batch.empty()) {
    T.printUsage();
    return 2;
  }

  if (!Host.open())
    return 2;
  SchedulerOptions SO = Host.schedulerOptions();
  SO.Telemetry = !TelemetryOut.empty();

  uint64_t JobsCompleted = 0;
  bool AllVerified = true;
  {
    AnalysisScheduler Scheduler(SO);
    for (uint64_t Pass = 0; Pass < Repeat; ++Pass) {
      for (const JobSpec &Spec : Batch) {
        JobSpec Submitted = Spec;
        Submitted.Id = Pass * Batch.size() + Spec.Id;
        Scheduler.submit(std::move(Submitted));
      }
      // Drain between passes: pass N+1 then hits the warm cache instead of
      // racing pass N's in-flight duplicates.
      Scheduler.waitIdle();
    }

    std::vector<JobResult> Results = Scheduler.takeResults();
    JobsCompleted = Results.size();
    for (const JobResult &R : Results) {
      AllVerified &= jobVerified(R.Status);
      std::printf("%s\n", resultToJsonLine(R).c_str());
    }

    if (ShowStats)
      std::fprintf(stderr, "%s\n",
                   ServiceHost::statsLine(Scheduler, JobsCompleted).c_str());
    if (!Host.exportObs(Scheduler))
      return 2;
    if (!TelemetryOut.empty()) {
      std::string Line = Scheduler.telemetryJsonLine();
      if (TelemetryOut == "-") {
        std::fprintf(stderr, "%s\n", Line.c_str());
      } else {
        std::ofstream TeleOut(TelemetryOut);
        if (!TeleOut) {
          std::fprintf(stderr, "error: cannot write '%s'\n",
                       TelemetryOut.c_str());
          return 2;
        }
        TeleOut << Line << "\n";
      }
    }
  }

  Host.flushPersist();
  return AllVerified ? 0 : 1;
}
