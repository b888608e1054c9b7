//===- service/Driver.cpp - What the cai-* tools share ---------------------===//

#include "service/Driver.h"

#include "encodings/Encodings.h"
#include "ir/ProgramParser.h"
#include "lint/Lint.h"
#include "obs/EventLog.h"
#include "service/Protocol.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>

using namespace cai;
using namespace cai::service;

//===----------------------------------------------------------------------===//
// OptionTable
//===----------------------------------------------------------------------===//

void OptionTable::add(const char *Name, Value V, Handler H) {
  Options.push_back({Name, V, std::move(H)});
}

void OptionTable::flag(const char *Name, bool &Out, bool To) {
  add(Name, Value::None, [&Out, To](const std::string *) {
    Out = To;
    return std::string();
  });
}

void OptionTable::text(
    const char *Name, std::string &Out, bool Bare,
    std::function<std::string(const std::string &)> Check) {
  add(Name, Bare ? Value::Optional : Value::Required,
      [&Out, Check = std::move(Check)](const std::string *V) {
        if (!V)
          return std::string();
        if (Check) {
          std::string Error = Check(*V);
          if (!Error.empty())
            return Error;
        }
        Out = *V;
        return std::string();
      });
}

void OptionTable::path(const char *Name, std::string &Out) {
  std::string Flag = std::string("--") + Name;
  text(Name, Out, false, [Flag](const std::string &V) {
    return V.empty() ? Flag + " expects a file name" : std::string();
  });
}

void OptionTable::choice(const char *Name, std::string &Out,
                         std::vector<std::string> Choices) {
  std::string Flag = std::string("--") + Name;
  text(Name, Out, false,
       [Flag, Choices = std::move(Choices)](const std::string &V) {
         if (std::find(Choices.begin(), Choices.end(), V) != Choices.end())
           return std::string();
         std::string List;
         for (size_t I = 0; I < Choices.size(); ++I)
           List += (I == 0 ? "" : I + 1 == Choices.size() ? " or " : ", ") +
                   ("'" + Choices[I] + "'");
         return Flag + " expects " + List + ", got '" + V + "'";
       });
}

void OptionTable::numberInto(const char *Name,
                             std::function<void(uint64_t)> Set, uint64_t Min,
                             uint64_t Max, bool Bare) {
  std::string Flag = std::string("--") + Name;
  add(Name, Bare ? Value::Optional : Value::Required,
      [Set = std::move(Set), Min, Max, Flag](const std::string *V) {
        if (!V)
          return std::string();
        if (V->empty() ||
            V->find_first_not_of("0123456789") != std::string::npos)
          return Flag + " expects a number, got '" + *V + "'";
        uint64_t N = 0;
        bool Overflow = false;
        for (char C : *V) {
          unsigned D = unsigned(C - '0');
          Overflow |= N > (UINT64_MAX - D) / 10;
          N = N * 10 + D;
        }
        if (Overflow || N < Min || N > Max)
          return Flag + "=" + *V + " is out of range [" +
                 std::to_string(Min) + ", " + std::to_string(Max) + "]";
        Set(N);
        return std::string();
      });
}

bool OptionTable::given(const char *Name) const {
  for (const Option &O : Options)
    if (O.Name == Name)
      return O.Given;
  return false;
}

void OptionTable::printUsage() const { std::fputs(Usage, stderr); }

std::optional<int> OptionTable::parse(int Argc, char **Argv,
                                      std::vector<std::string> *Positional) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--help" || Arg == "-h") {
      printUsage();
      return 0;
    }
    bool IsOption = !Arg.empty() && Arg[0] == '-';
    if (!IsOption && Positional) {
      Positional->push_back(Arg);
      continue;
    }
    Option *Match = nullptr;
    std::optional<std::string> Val;
    if (IsOption && Arg.rfind("--", 0) == 0) {
      size_t Eq = Arg.find('=');
      std::string Name = Arg.substr(2, Eq == std::string::npos ? Eq : Eq - 2);
      if (Eq != std::string::npos)
        Val = Arg.substr(Eq + 1);
      for (Option &O : Options)
        if (O.Name == Name)
          Match = &O;
    }
    if (!Match || (Val && Match->Kind == Value::None)) {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      printUsage();
      return 2;
    }
    if (!Val && Match->Kind == Value::Required) {
      std::fprintf(stderr, "error: --%s expects a value\n",
                   Match->Name.c_str());
      return 2;
    }
    std::string Error = Match->Apply(Val ? &*Val : nullptr);
    if (!Error.empty()) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 2;
    }
    Match->Given = true;
  }
  return std::nullopt;
}

std::string service::lintSelectorError(const std::string &Sel) {
  std::string Error;
  lint::validateLintChecks(Sel, &Error);
  return Error;
}

bool service::readFile(const std::string &Path, std::string &Out,
                       bool Report) {
  std::ifstream In(Path);
  if (!In) {
    if (Report)
      std::fprintf(stderr, "error: cannot open '%s'\n", Path.c_str());
    return false;
  }
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  Out = Buffer.str();
  return true;
}

//===----------------------------------------------------------------------===//
// ProgramSetup
//===----------------------------------------------------------------------===//

const std::vector<std::string> &service::encodeNames() {
  static const std::vector<std::string> Names = {"comm", "arity"};
  return Names;
}

void service::internTheoryPredicates(TermContext &Ctx) {
  for (const char *Pred : {"even", "odd", "positive", "negative"})
    Ctx.getPredicate(Pred, 1);
}

ProgramSetup::ProgramSetup() : Factory(Ctx) { internTheoryPredicates(Ctx); }

ProgramSetup::Status ProgramSetup::prepare(const std::string &DomainSpec,
                                           const std::string &Encode,
                                           std::string_view Text,
                                           uint64_t *ParseUs) {
  const std::vector<std::string> &Schemes = encodeNames();
  if (!Encode.empty() &&
      std::find(Schemes.begin(), Schemes.end(), Encode) == Schemes.end()) {
    Error = "unknown encode '" + Encode + "'";
    return Status::BadDomain;
  }
  Domain = Factory.build(DomainSpec);
  if (!Domain) {
    Error = Factory.error();
    return Status::BadDomain;
  }
  auto Begin = ParseUs ? std::chrono::steady_clock::now()
                       : std::chrono::steady_clock::time_point();
  std::optional<Program> P = parseProgram(Ctx, Text, &Error);
  if (!P)
    return Status::ParseError;
  Prog = std::move(*P);
  if (!Encode.empty()) {
    TermEncoder Enc(Ctx, Encode == "comm"
                             ? TermEncoder::Scheme::Commutative
                             : TermEncoder::Scheme::ArityReduction);
    Prog = Enc.encode(Prog);
  }
  if (ParseUs)
    *ParseUs = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - Begin)
            .count());
  return Status::Ok;
}

//===----------------------------------------------------------------------===//
// ServiceHost
//===----------------------------------------------------------------------===//

ServiceHost::~ServiceHost() {
  if (EventLogOut.is_open())
    obs::EventLog::global().open(nullptr); // Before EventLogOut closes.
}

void ServiceHost::addOptions(OptionTable &T) {
  T.number("jobs", Opts.Workers, 1, MaxWorkers);
  T.number("cache-bytes", Opts.CacheBytes);
  T.number("slow-ms", Opts.SlowMs);
  T.path("exemplar-dir", Opts.ExemplarDir);
  T.path("persist-dir", Opts.PersistDir);
  T.number("persist-budget", Opts.PersistBudget);
  T.path("event-log", Opts.EventLog);
  T.path("trace-out", Opts.TraceOut);
  T.path("metrics-out", Opts.MetricsOut);
  T.choice("metrics-format", Opts.MetricsFormat, {"json", "prom"});
}

bool ServiceHost::open() {
  if (!Opts.EventLog.empty()) {
    EventLogOut.open(Opts.EventLog, std::ios::app);
    if (!EventLogOut) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   Opts.EventLog.c_str());
      return false;
    }
    obs::EventLog::global().open(&EventLogOut);
  }
  if (!Opts.PersistDir.empty()) {
    Persist = std::make_shared<persist::PersistStore>(Opts.PersistDir,
                                                      Opts.PersistBudget);
    std::string Error;
    if (!Persist->open(&Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return false;
    }
  }
  return true;
}

SchedulerOptions ServiceHost::schedulerOptions() const {
  SchedulerOptions SO;
  SO.Workers = static_cast<unsigned>(Opts.Workers);
  SO.CacheBytes = Opts.CacheBytes;
  SO.CollectTraces = !Opts.TraceOut.empty();
  SO.SlowMs = Opts.SlowMs;
  SO.ExemplarDir = Opts.ExemplarDir;
  SO.Persist = Persist;
  return SO;
}

std::string ServiceHost::statsLine(const AnalysisScheduler &S,
                                   uint64_t JobsCompleted) {
  persist::PersistStats PS = S.persistStats();
  return statsToJsonLine(S.cacheStats(), S.snapshotCacheStats(),
                         S.incrementalStats(), S.numWorkers(), JobsCompleted,
                         S.hasPersist() ? &PS : nullptr);
}

bool ServiceHost::flushPersist() {
  std::string Error;
  if (!Persist || Persist->flush(&Error))
    return true;
  std::fprintf(stderr, "warning: persist flush failed: %s\n", Error.c_str());
  return false;
}

bool ServiceHost::exportObs(
    const AnalysisScheduler &S,
    const std::function<void(obs::MetricsRegistry &)> &Extra) const {
  if (!Opts.TraceOut.empty()) {
    std::ofstream Out(Opts.TraceOut);
    if (!Out) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   Opts.TraceOut.c_str());
      return false;
    }
    S.writeMergedTrace(Out);
  }
  if (Opts.MetricsOut.empty())
    return true;
  obs::MetricsRegistry Merged;
  S.mergeMetricsInto(Merged);
  if (Extra)
    Extra(Merged);
  return writeMetricsFile(Merged, Opts.MetricsOut, Opts.MetricsFormat);
}

bool service::writeMetricsFile(const obs::MetricsRegistry &R,
                               const std::string &Path,
                               const std::string &Format) {
  std::ofstream Out(Path);
  if (!Out) {
    std::fprintf(stderr, "error: cannot write '%s'\n", Path.c_str());
    return false;
  }
  if (Format == "prom")
    R.writePrometheus(Out);
  else
    R.writeJson(Out);
  return true;
}
