//===- net/Conn.cpp - Line-oriented socket connection ---------------------===//

#include "net/Conn.h"

#include <cerrno>

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

namespace cai {
namespace net {

bool parseHostPort(const std::string &Spec, std::string *Host,
                   uint16_t *Port) {
  size_t Colon = Spec.rfind(':');
  if (Colon == std::string::npos)
    return false;
  std::string H = Spec.substr(0, Colon);
  std::string P = Spec.substr(Colon + 1);
  if (P.empty() || P.size() > 5 ||
      P.find_first_not_of("0123456789") != std::string::npos)
    return false;
  unsigned long V = std::stoul(P);
  if (V > 65535)
    return false;
  *Host = H.empty() ? std::string("127.0.0.1") : H;
  *Port = uint16_t(V);
  return true;
}

void Conn::setReadTimeoutMs(unsigned Ms) {
  struct timeval Tv;
  Tv.tv_sec = Ms / 1000;
  Tv.tv_usec = (Ms % 1000) * 1000;
  ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv));
}

Conn::ReadStatus Conn::readLine(std::string *Line) {
  for (;;) {
    size_t Nl = Buf.find('\n');
    if (Nl != std::string::npos) {
      size_t End = Nl;
      if (End > 0 && Buf[End - 1] == '\r')
        --End;
      Line->assign(Buf, 0, End);
      Buf.erase(0, Nl + 1);
      return ReadStatus::Line;
    }
    if (MaxLineBytes && Buf.size() > MaxLineBytes)
      return ReadStatus::TooLong;
    if (SawEof) {
      if (!Buf.empty()) {
        *Line = std::move(Buf);
        Buf.clear();
        return ReadStatus::Line;
      }
      return ReadStatus::Eof;
    }
    char Chunk[65536];
    ssize_t N = ::read(Fd, Chunk, sizeof(Chunk));
    if (N > 0) {
      Buf.append(Chunk, size_t(N));
      continue;
    }
    if (N == 0) {
      SawEof = true;
      continue; // Deliver any unterminated tail, then Eof.
    }
    if (errno == EINTR)
      return ReadStatus::Interrupted;
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      return ReadStatus::Timeout;
    return ReadStatus::Error;
  }
}

bool Conn::writeAll(const std::string &Data) {
  const char *P = Data.data();
  size_t Size = Data.size();
  while (Size) {
    ssize_t N = ::write(Fd, P, Size);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    P += N;
    Size -= size_t(N);
  }
  return true;
}

bool Conn::writeLine(const std::string &Data) {
  return writeAll(Data + "\n");
}

void Conn::close() {
  if (Fd >= 0)
    ::close(Fd);
  Fd = -1;
  Buf.clear();
  SawEof = false;
}

} // namespace net
} // namespace cai
