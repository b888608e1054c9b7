//===- service/Driver.h - What the cai-* tools share ------------*- C++ -*-===//
///
/// \file
/// The command-line tools (cai-analyze, cai-lint, cai-batch, cai-serve)
/// are thin mains over this module, so each decision they share is made
/// in one place:
///
///  * OptionTable -- every flag of every tool: plain switches, strings,
///    file paths (never empty), fixed choices and range-checked decimal
///    numbers.  A bad value is a diagnostic naming the flag and exit code
///    2, never an exception or a silently truncated value.
///  * readFile.
///  * ProgramSetup -- the single-program set-up path: a fresh TermContext
///    with the theory predicates pre-interned, the --domain lattice, the
///    parsed program and the --encode scheme.  The service's isolated job
///    runner and the single-program tools all go through it.
///  * ServiceHost -- the persist store, the event log and the merged
///    trace/metrics export that cai-batch and cai-serve share.
///
/// It lives in the library, not under tools/, so a tool compiled alone
/// against libcai links everything it needs.
///
//===----------------------------------------------------------------------===//

#ifndef CAI_SERVICE_DRIVER_H
#define CAI_SERVICE_DRIVER_H

#include "ir/Program.h"
#include "service/DomainFactory.h"
#include "service/Scheduler.h"

#include <cstdint>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace cai {
namespace service {

/// Ceiling on --jobs: each worker is an OS thread, so the flag must not
/// be a way to ask for an unbounded number of them.
constexpr uint64_t MaxWorkers = 256;

/// Declarative `--name[=value]` parsing shared by every tool.
class OptionTable {
public:
  /// Receives the flag's value (nullptr when given bare) and returns an
  /// error message, empty on success.
  using Handler = std::function<std::string(const std::string *Value)>;

  /// Whether `--name` takes `=value`.
  enum class Value : uint8_t { None, Required, Optional };

  /// \p Usage is printed to stderr for --help/-h and after an unknown
  /// option.
  explicit OptionTable(const char *Usage) : Usage(Usage) {}

  /// The general form; the helpers below cover every plain case.
  void add(const char *Name, Value V, Handler H);

  /// `--name`: sets \p Out to \p To.
  void flag(const char *Name, bool &Out, bool To = true);
  /// `--name=VALUE` (`--name` alone too when \p Bare, leaving \p Out
  /// unchanged).  \p Check, when set, returns an error message for a
  /// value it rejects.
  void text(const char *Name, std::string &Out, bool Bare = false,
            std::function<std::string(const std::string &)> Check = nullptr);
  /// `--name=FILE`: a non-empty file or directory name.
  void path(const char *Name, std::string &Out);
  /// `--name=VALUE` with VALUE one of \p Choices.
  void choice(const char *Name, std::string &Out,
              std::vector<std::string> Choices);
  /// `--name=N`: a decimal number in [Min, Max], by default the range of
  /// \p Out's type (`--name` alone too when \p Bare, leaving \p Out
  /// unchanged).
  template <typename T>
  void number(const char *Name, T &Out, uint64_t Min = 0,
              uint64_t Max = std::numeric_limits<T>::max(),
              bool Bare = false) {
    numberInto(
        Name, [&Out](uint64_t N) { Out = static_cast<T>(N); }, Min, Max,
        Bare);
  }

  /// Parses argv[1..].  Non-option arguments go to \p Positional; when it
  /// is null they are rejected like unknown options.  Returns the exit
  /// code to leave with (0 after --help, 2 after a diagnostic), or
  /// nullopt to carry on.
  std::optional<int> parse(int Argc, char **Argv,
                           std::vector<std::string> *Positional);

  /// True if `--name` appeared (bare or with a value).
  bool given(const char *Name) const;

  void printUsage() const;

private:
  void numberInto(const char *Name, std::function<void(uint64_t)> Set,
                  uint64_t Min, uint64_t Max, bool Bare);

  struct Option {
    std::string Name;
    Value Kind;
    Handler Apply;
    bool Given = false;
  };
  const char *Usage;
  std::vector<Option> Options;
};

/// OptionTable::text check for a lint check selector (--lint=, --checks=).
std::string lintSelectorError(const std::string &Sel);

/// Reads the whole of \p Path into \p Out; false when it cannot be opened
/// (saying so on stderr when \p Report).
bool readFile(const std::string &Path, std::string &Out, bool Report = true);

/// Interns the theory predicates (even, odd, positive, negative) so the
/// parser recognizes them whichever domains are chosen.
void internTheoryPredicates(TermContext &Ctx);

/// The --encode scheme names ("comm": Section 5.1, "arity": Section 5.2);
/// "" means no encoding.
const std::vector<std::string> &encodeNames();

/// One program's analysis inputs, built fresh: nothing outlives the
/// object, so analyses set up this way cannot influence each other.
class ProgramSetup {
public:
  enum class Status : uint8_t { Ok, BadDomain, ParseError };

  /// A fresh TermContext with the theory predicates pre-interned.
  ProgramSetup();

  /// Builds the \p DomainSpec lattice, parses \p Text and applies the
  /// \p Encode scheme, in that order.  An unknown scheme or domain spec
  /// is BadDomain, unparseable text ParseError; error() says why.
  /// \p ParseUs, when non-null, receives the parse + encode time (no
  /// clock is read otherwise).
  Status prepare(const std::string &DomainSpec, const std::string &Encode,
                 std::string_view Text, uint64_t *ParseUs = nullptr);

  TermContext Ctx;
  /// Owns the lattice and any decorator a caller stacks on it.
  DomainFactory Factory;
  LogicalLattice *Domain = nullptr;
  Program Prog;

  const std::string &error() const { return Error; }

private:
  std::string Error;
};

/// The scheduler, persist and observability flags of cai-batch and
/// cai-serve, with their defaults.
struct HostOptions {
  uint64_t Workers = 1;
  uint64_t CacheBytes = 64ull << 20;
  uint64_t SlowMs = 0;
  std::string ExemplarDir;
  std::string PersistDir;
  uint64_t PersistBudget = 0;
  std::string EventLog;
  std::string TraceOut;
  std::string MetricsOut;
  std::string MetricsFormat = "json";
};

/// The process-level resources around an AnalysisScheduler.  Declare it
/// before the scheduler: its destructor closes the event log, which must
/// outlive the workers that write to it.
class ServiceHost {
public:
  ~ServiceHost();

  /// Registers --jobs, --cache-bytes, --slow-ms, --exemplar-dir,
  /// --persist-dir, --persist-budget, --event-log, --trace-out,
  /// --metrics-out and --metrics-format.
  void addOptions(OptionTable &T);

  /// Opens the event log (append) and the persist store, if asked for.
  /// Prints a diagnostic and returns false on failure.
  bool open();

  /// Scheduler options from the flags (Telemetry is the caller's call).
  SchedulerOptions schedulerOptions() const;

  /// The deterministic stats line, with a persist block when a store is
  /// attached.
  static std::string statsLine(const AnalysisScheduler &S,
                               uint64_t JobsCompleted);

  /// Makes the persist log durable; warns on stderr and returns false on
  /// failure.  True when no store is attached.
  bool flushPersist();

  /// Writes --trace-out and --metrics-out from the idle scheduler's
  /// merged shards; \p Extra adds tool-level metrics first.  Prints a
  /// diagnostic and returns false on an I/O error.
  bool exportObs(const AnalysisScheduler &S,
                 const std::function<void(obs::MetricsRegistry &)> &Extra =
                     nullptr) const;

  HostOptions Opts;

private:
  std::shared_ptr<persist::PersistStore> Persist;
  std::ofstream EventLogOut;
};

/// Writes \p R to \p Path as nested JSON or, for \p Format "prom",
/// Prometheus text.  Prints a diagnostic and returns false on failure.
bool writeMetricsFile(const obs::MetricsRegistry &R, const std::string &Path,
                      const std::string &Format);

} // namespace service
} // namespace cai

#endif // CAI_SERVICE_DRIVER_H
