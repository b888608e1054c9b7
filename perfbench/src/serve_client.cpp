//===- perfbench/src/serve_client.cpp - cai-serve child process -----------===//

#include "serve_client.h"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <poll.h>
#include <sched.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

using namespace perfbench;

bool ServeProcess::start(const std::string &Path, std::string *Error) {
  int In[2], Out[2];
  if (::pipe(In) != 0 || ::pipe(Out) != 0) {
    *Error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  Pid = ::fork();
  if (Pid < 0) {
    *Error = std::string("fork: ") + std::strerror(errno);
    return false;
  }
  if (Pid == 0) {
    ::dup2(In[0], 0);
    ::dup2(Out[1], 1);
    ::close(In[0]);
    ::close(In[1]);
    ::close(Out[0]);
    ::close(Out[1]);
    ::execl(Path.c_str(), Path.c_str(), "--jobs=1", static_cast<char *>(nullptr));
    ::_exit(127);
  }
  ::close(In[0]);
  ::close(Out[1]);
  ToChild = In[1];
  FromChild = Out[0];
  ::signal(SIGPIPE, SIG_IGN);
  return true;
}

bool ServeProcess::readLine(std::string *Line, int TimeoutMs) {
  auto Deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(TimeoutMs);
  for (;;) {
    size_t Nl = Buffer.find('\n');
    if (Nl != std::string::npos) {
      Line->assign(Buffer, 0, Nl);
      Buffer.erase(0, Nl + 1);
      return true;
    }
    int Left = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            Deadline - std::chrono::steady_clock::now())
            .count());
    if (Left <= 0)
      return false;
    pollfd P{FromChild, POLLIN, 0};
    int R = ::poll(&P, 1, Left);
    if (R < 0 && errno == EINTR)
      continue;
    if (R <= 0)
      return false;
    char Chunk[65536];
    ssize_t N = ::read(FromChild, Chunk, sizeof(Chunk));
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Buffer.append(Chunk, static_cast<size_t>(N));
  }
}

bool ServeProcess::request(const std::string &Line, std::string *Reply,
                           int TimeoutMs) {
  if (Pid <= 0)
    return false;
  std::string Out = Line + "\n";
  size_t Off = 0;
  while (Off < Out.size()) {
    ssize_t N = ::write(ToChild, Out.data() + Off, Out.size() - Off);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Off += static_cast<size_t>(N);
  }
  return readLine(Reply, TimeoutMs);
}

double perfbench::peakRssMb(const std::string &StatusPath) {
  std::ifstream In(StatusPath);
  std::string Key;
  while (In >> Key) {
    if (Key == "VmHWM:") {
      double Kb = 0;
      In >> Kb;
      return Kb / 1024.0;
    }
    In.ignore(1 << 20, '\n');
  }
  return -1;
}

void ServeProcess::pinTo(int Cpu) const {
  if (Pid <= 0 || Cpu < 0)
    return;
  cpu_set_t One;
  CPU_ZERO(&One);
  CPU_SET(Cpu, &One);
  std::error_code Ec;
  for (const auto &Task : std::filesystem::directory_iterator(
           "/proc/" + std::to_string(Pid) + "/task", Ec))
    ::sched_setaffinity(std::stoi(Task.path().filename().string()),
                        sizeof(One), &One);
}

double ServeProcess::peakRssMb() const {
  return perfbench::peakRssMb("/proc/" + std::to_string(Pid) + "/status");
}

void ServeProcess::stop() {
  if (Pid <= 0)
    return;
  const char Shutdown[] = "{\"cmd\":\"shutdown\"}\n";
  if (::write(ToChild, Shutdown, sizeof(Shutdown) - 1) < 0) {
    // The child is gone already; waitpid below reaps it.
  }
  ::close(ToChild);
  ToChild = -1;
  int Status = 0;
  bool Exited = false;
  for (int I = 0; I < 500 && !Exited; ++I) {
    if (::waitpid(Pid, &Status, WNOHANG) == Pid)
      Exited = true;
    else
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (!Exited) {
    ::kill(Pid, SIGKILL);
    ::waitpid(Pid, &Status, 0);
  }
  ::close(FromChild);
  FromChild = -1;
  Pid = -1;
  Buffer.clear();
}
