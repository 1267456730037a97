#include "server/socket.h"

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "core/byteio.h"
#include "core/fault.h"
#include "server/protocol.h"

namespace privtree::server {

namespace {

Status Errno(std::string_view what) {
  return Status::IOError(std::string(what) + ": " + std::strerror(errno));
}

/// Writes all of `data`, absorbing short writes and EINTR.  EAGAIN — a
/// send that blocked past SO_SNDTIMEO — surfaces as DeadlineExceeded.
Status WriteAll(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::DeadlineExceeded("socket send timed out");
      }
      return Errno("send");
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return Status::OK();
}

/// Applies a socket timeout option such as SO_RCVTIMEO (`millis` 0 clears
/// the bound).
Status SetFdTimeout(int fd, int option, std::int64_t millis) {
  if (fd < 0) return Status::IOError("socket is closed");
  timeval tv{};
  if (millis > 0) {
    tv.tv_sec = static_cast<time_t>(millis / 1000);
    tv.tv_usec = static_cast<suseconds_t>((millis % 1000) * 1000);
  }
  if (::setsockopt(fd, SOL_SOCKET, option, &tv, sizeof(tv)) != 0) {
    return Errno("setsockopt(timeout)");
  }
  return Status::OK();
}

/// Reads exactly `size` bytes.  `*eof` is set when the peer closed before
/// the first byte (only meaningful on failure).
/// Flips O_NONBLOCK on `fd`.
Status SetFdNonBlocking(int fd, bool nonblocking) {
  if (fd < 0) return Status::IOError("socket is closed");
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return Errno("fcntl(F_GETFL)");
  const int want =
      nonblocking ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (::fcntl(fd, F_SETFL, want) < 0) return Errno("fcntl(F_SETFL)");
  return Status::OK();
}

Status ReadAll(int fd, char* data, std::size_t size, bool* eof) {
  *eof = false;
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::recv(fd, data + got, size - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // SO_RCVTIMEO expired: the clean, bounded-waiting failure Connect's
        // half-open-server protection relies on.
        return Status::DeadlineExceeded("socket read timed out");
      }
      return Errno("recv");
    }
    if (n == 0) {
      *eof = got == 0;
      return Status::IOError("connection closed mid-frame");
    }
    got += static_cast<std::size_t>(n);
  }
  return Status::OK();
}

}  // namespace

Connection::Connection(Connection&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)) {}

Connection& Connection::operator=(Connection&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

namespace {

/// Connects `fd` with a bounded wait: non-blocking connect, poll for
/// writability, then read back SO_ERROR.  Restores blocking mode on
/// success.
Status ConnectWithTimeout(int fd, const sockaddr* addr, socklen_t addrlen,
                          std::int64_t timeout_millis) {
  if (Status s = SetFdNonBlocking(fd, true); !s.ok()) return s;
  if (::connect(fd, addr, addrlen) != 0) {
    if (errno != EINPROGRESS) return Errno("connect");
    pollfd pfd{fd, POLLOUT, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(timeout_millis));
    if (ready < 0) return Errno("poll(connect)");
    if (ready == 0) {
      return Status::DeadlineExceeded("connect timed out after " +
                                      std::to_string(timeout_millis) + "ms");
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
      return Errno("getsockopt(SO_ERROR)");
    }
    if (err != 0) {
      return Status::IOError(std::string("connect: ") + std::strerror(err));
    }
  }
  return SetFdNonBlocking(fd, false);
}

}  // namespace

Result<Connection> Connection::Dial(const std::string& host,
                                    std::uint16_t port,
                                    std::int64_t timeout_millis) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* found = nullptr;
  const std::string service = std::to_string(port);
  if (const int rc = ::getaddrinfo(host.c_str(), service.c_str(), &hints,
                                   &found);
      rc != 0) {
    return Status::IOError("getaddrinfo " + host + ": " + gai_strerror(rc));
  }
  Status last = Status::IOError("no address for " + host);
  for (const addrinfo* ai = found; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last = Errno("socket");
      continue;
    }
    Status connected =
        timeout_millis > 0
            ? ConnectWithTimeout(fd, ai->ai_addr, ai->ai_addrlen,
                                 timeout_millis)
            : (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0
                   ? Status::OK()
                   : Errno("connect " + host + ":" + service));
    if (connected.ok()) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      ::freeaddrinfo(found);
      return Connection(fd);
    }
    last = std::move(connected);
    ::close(fd);
  }
  ::freeaddrinfo(found);
  return last;
}

Status Connection::SetRecvTimeout(std::int64_t millis) {
  return SetFdTimeout(fd_, SO_RCVTIMEO, millis);
}

Status Connection::SendFrame(std::string_view payload) {
  if (!ok()) return Status::IOError("connection is closed");
  if (payload.size() > kMaxFramePayload) {
    return Status::InvalidArgument("frame payload exceeds cap");
  }
  std::string frame;
  frame.reserve(4 + payload.size());
  ByteWriter w(&frame);
  w.U32(static_cast<std::uint32_t>(payload.size()));
  frame.append(payload);
  // Chaos hooks: `partial` pushes a torn frame prefix then tears the
  // connection down (the peer sees a mid-frame close), `reset` tears it
  // down before any byte, `error` fails without touching the socket,
  // `delay` just slows the write.
  if (auto f = PRIVTREE_FAULT("socket.send"); f && f.MaybeSleep()) {
    if (f.kind == fault::Kind::kPartialWrite && frame.size() > 1) {
      // lint-ok: discarded-status — the half-frame write IS the injected
      // fault; whether those bytes land is part of the chaos.
      (void)WriteAll(fd_, frame.data(), frame.size() / 2);
    }
    if (f.kind == fault::Kind::kPartialWrite ||
        f.kind == fault::Kind::kConnReset) {
      ShutdownBoth();
    }
    return f.ToStatus("socket.send");
  }
  return WriteAll(fd_, frame.data(), frame.size());
}

Result<std::string> Connection::RecvFrame() {
  if (!ok()) return Status::IOError("connection is closed");
  if (auto f = PRIVTREE_FAULT("socket.recv"); f && f.MaybeSleep()) {
    if (f.kind == fault::Kind::kConnReset) ShutdownBoth();
    return f.ToStatus("socket.recv");
  }
  char prefix[4];
  bool eof = false;
  if (Status read = ReadAll(fd_, prefix, sizeof(prefix), &eof); !read.ok()) {
    if (eof) return Status::NotFound("eof");
    return read;
  }
  ByteReader r(std::string_view(prefix, sizeof(prefix)));
  std::uint32_t size = 0;
  r.U32(&size);
  if (size > kMaxFramePayload) {
    return Status::InvalidArgument("frame length " + std::to_string(size) +
                                   " exceeds cap");
  }
  std::string payload(size, '\0');
  if (Status read = ReadAll(fd_, payload.data(), size, &eof); !read.ok()) {
    return read;
  }
  return payload;
}

void Connection::ShutdownBoth() {
  if (ok()) ::shutdown(fd_, SHUT_RDWR);
}

Status Connection::SetNonBlocking(bool nonblocking) {
  return SetFdNonBlocking(fd_, nonblocking);
}

void Connection::Close() {
  if (ok()) {
    ::close(fd_);
    fd_ = -1;
  }
}

ListenSocket::ListenSocket(ListenSocket&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      port_(std::exchange(other.port_, 0)) {}

ListenSocket& ListenSocket::operator=(ListenSocket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
    port_ = std::exchange(other.port_, 0);
  }
  return *this;
}

Result<ListenSocket> ListenSocket::Listen(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const Status bound = Errno("bind 127.0.0.1:" + std::to_string(port));
    ::close(fd);
    return bound;
  }
  if (::listen(fd, SOMAXCONN) != 0) {
    const Status listened = Errno("listen");
    ::close(fd);
    return listened;
  }

  sockaddr_in bound_addr{};
  socklen_t len = sizeof(bound_addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound_addr), &len) !=
      0) {
    const Status named = Errno("getsockname");
    ::close(fd);
    return named;
  }
  ListenSocket out;
  out.fd_ = fd;
  out.port_ = ntohs(bound_addr.sin_port);
  return out;
}

Result<Connection> ListenSocket::Accept() {
  if (!ok()) return Status::Unavailable("listener is shut down");
  for (;;) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return Connection(fd);
    }
    if (errno == EINTR) continue;
    // A shut-down listener wakes blocked accepts with EINVAL (or EBADF if
    // already closed); report it as the clean stop it is.
    if (errno == EINVAL || errno == EBADF) {
      return Status::Unavailable("listener is shut down");
    }
    return Errno("accept");
  }
}

void ListenSocket::Shutdown() {
  if (ok()) ::shutdown(fd_, SHUT_RDWR);
}

Status ListenSocket::SetNonBlocking(bool nonblocking) {
  return SetFdNonBlocking(fd_, nonblocking);
}

void ListenSocket::Close() {
  if (ok()) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace privtree::server
