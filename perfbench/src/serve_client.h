//===- perfbench/src/serve_client.h - cai-serve child process ---*- C++ -*-===//
///
/// \file
/// One cai-serve child speaking JSON lines over pipes, driven as a closed
/// loop: each request is written only after the previous reply arrived.
///
//===----------------------------------------------------------------------===//

#ifndef CAI_PERFBENCH_SERVE_CLIENT_H
#define CAI_PERFBENCH_SERVE_CLIENT_H

#include <string>
#include <sys/types.h>

namespace perfbench {

/// VmHWM (peak resident set) in MiB from a /proc/<pid>/status file, or -1.
double peakRssMb(const std::string &StatusPath);

class ServeProcess {
public:
  ServeProcess() = default;
  ~ServeProcess() { stop(); }
  ServeProcess(const ServeProcess &) = delete;
  ServeProcess &operator=(const ServeProcess &) = delete;

  /// Spawns `Path --jobs=1`.  False (with \p Error) if it cannot start.
  bool start(const std::string &Path, std::string *Error);

  /// Writes \p Line plus a newline and reads one reply line into \p Reply.
  /// False on a write error, EOF, or no reply within \p TimeoutMs.
  bool request(const std::string &Line, std::string *Reply,
               int TimeoutMs = 60000);

  /// Pins every thread of the child to vCPU \p Cpu (none if negative).
  void pinTo(int Cpu) const;

  /// Peak resident set of the child in MiB (VmHWM), or -1.
  double peakRssMb() const;

  /// Sends shutdown, closes the pipes and waits for the child; kills it
  /// if it has not exited within a few seconds.  Idempotent.
  void stop();

private:
  bool readLine(std::string *Line, int TimeoutMs);

  pid_t Pid = -1;
  int ToChild = -1;
  int FromChild = -1;
  std::string Buffer;
};

} // namespace perfbench

#endif // CAI_PERFBENCH_SERVE_CLIENT_H
