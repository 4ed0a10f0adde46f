#include "support/socket.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "support/error.hpp"
#include "support/parse.hpp"

namespace mavr::support {

namespace {

sockaddr_un make_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  MAVR_REQUIRE(path.size() < sizeof addr.sun_path,
               "AF_UNIX path too long (sun_path limit)");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

/// Waits for readability. true = readable (or error pending — the
/// following read reports it); false = timed out.
///
/// EINTR restarts the poll with the time *remaining to the original
/// deadline*, not the full timeout: under a signal storm a bounded wait
/// must stay bounded (a per-signal restart of the full slice would extend
/// it without limit).
bool wait_readable(int fd, int timeout_ms) {
  pollfd pfd{fd, POLLIN, 0};
  using Clock = std::chrono::steady_clock;
  const auto deadline = Clock::now() + std::chrono::milliseconds(
                                           timeout_ms < 0 ? 0 : timeout_ms);
  int remaining = timeout_ms;
  for (;;) {
    const int rc = ::poll(&pfd, 1, remaining);
    if (rc > 0) return true;
    if (rc == 0) return false;
    if (errno != EINTR) return true;  // let read() surface the error
    if (timeout_ms < 0) continue;     // infinite wait: just restart
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    remaining = static_cast<int>(std::max<std::int64_t>(0, left.count()));
    if (remaining == 0) return false;
  }
}

void set_nodelay(int fd) {
  const int one = 1;
  // Best-effort: frames are small request/reply pairs, so Nagle only adds
  // latency. A failure here degrades latency, never correctness.
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

/// A stream socket on one address: bound and listening (`listen`), or
/// connected. -1, with `*error` set, on failure.
int open_socket(const sockaddr* addr, socklen_t len, int protocol,
                bool listen, std::string* error) {
  const int fd = ::socket(addr->sa_family, SOCK_STREAM, protocol);
  if (fd < 0) {
    *error = std::strerror(errno);
    return -1;
  }
  if (listen && addr->sa_family != AF_UNIX) {
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  } else if (listen) {
    // Replace a stale socket file left by an earlier listener.
    ::unlink(reinterpret_cast<const sockaddr_un*>(addr)->sun_path);
  }
  const bool ok = listen
                      ? ::bind(fd, addr, len) == 0 && ::listen(fd, 64) == 0
                      : ::connect(fd, addr, len) == 0;
  if (!ok) {
    *error = std::strerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

/// open_socket on each address `ep` names — its one AF_UNIX path, or each
/// getaddrinfo result for TCP — until one succeeds. -1, with `*error`
/// set, when none does.
int open_endpoint(const Endpoint& ep, bool listen, std::string* error) {
  if (ep.kind == Endpoint::Kind::kUnix) {
    const sockaddr_un addr = make_addr(ep.path);
    return open_socket(reinterpret_cast<const sockaddr*>(&addr), sizeof addr,
                       0, listen, error);
  }
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_protocol = IPPROTO_TCP;
  if (listen) hints.ai_flags = AI_PASSIVE;
  addrinfo* list = nullptr;
  const int rc =
      ::getaddrinfo(ep.host.empty() ? nullptr : ep.host.c_str(),
                    std::to_string(ep.port).c_str(), &hints, &list);
  if (rc != 0) {
    *error = ::gai_strerror(rc);
    return -1;
  }
  *error = "no addresses resolved";
  int fd = -1;
  for (addrinfo* ai = list; ai != nullptr && fd < 0; ai = ai->ai_next) {
    fd = open_socket(ai->ai_addr, ai->ai_addrlen, ai->ai_protocol, listen,
                     error);
  }
  ::freeaddrinfo(list);
  return fd;
}

/// Reads back the locally bound port (resolves port 0 to the kernel's
/// ephemeral choice).
std::uint16_t bound_port(int fd) {
  sockaddr_storage ss{};
  socklen_t len = sizeof ss;
  MAVR_CHECK(::getsockname(fd, reinterpret_cast<sockaddr*>(&ss), &len) == 0,
             "getsockname failed");
  if (ss.ss_family == AF_INET) {
    return ntohs(reinterpret_cast<const sockaddr_in&>(ss).sin_port);
  }
  if (ss.ss_family == AF_INET6) {
    return ntohs(reinterpret_cast<const sockaddr_in6&>(ss).sin6_port);
  }
  throw Error("bound socket has unexpected address family");
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.release();
    fault_ = std::move(other.fault_);
  }
  return *this;
}

int Socket::release() {
  const int fd = fd_;
  fd_ = -1;
  return fd;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool Socket::send_all(std::span<const std::uint8_t> data) {
  if (fd_ < 0) return false;
  std::vector<std::uint8_t> mutated;  // only allocated when corrupting
  if (fault_ != nullptr) {
    const SocketFaultHook::SendPlan plan = fault_->plan_send(data.size());
    if (plan.delay_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(plan.delay_ms));
    }
    // A half-open connection or a dropped frame both *succeed* from the
    // caller's view — exactly the lie a real network tells. The peer's
    // silence (and the caller's reply timeout) is what surfaces it.
    if (plan.half_open || plan.drop) return true;
    if (plan.corrupt_at < data.size()) {
      mutated.assign(data.begin(), data.end());
      mutated[plan.corrupt_at] =
          static_cast<std::uint8_t>(mutated[plan.corrupt_at] ^
                                    plan.corrupt_mask);
      data = mutated;
    }
    if (plan.truncate_to < data.size()) {
      // Deliver the prefix, then slam the write side: the peer reads a
      // torn frame followed by EOF — indistinguishable from a sender
      // dying mid-write.
      data = data.first(plan.truncate_to);
      std::size_t sent = 0;
      while (sent < data.size()) {
        const ssize_t n = ::send(fd_, data.data() + sent,
                                 data.size() - sent, MSG_NOSIGNAL);
        if (n < 0) {
          if (errno == EINTR) continue;
          break;
        }
        sent += static_cast<std::size_t>(n);
      }
      ::shutdown(fd_, SHUT_WR);
      return false;
    }
  }
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

IoStatus Socket::recv_exact(std::uint8_t* dst, std::size_t n,
                            int timeout_ms) {
  if (fd_ < 0) return IoStatus::kClosed;
  if (fault_ != nullptr) {
    if (fault_->recv_hung()) {
      // Half-open: the peer's bytes never arrive. Burn the caller's own
      // timeout budget so the hang is observed the way a real one is —
      // as silence, not as an error. An infinite wait would livelock the
      // harness, so it degrades to kClosed after a bounded stall.
      std::this_thread::sleep_for(
          std::chrono::milliseconds(timeout_ms >= 0 ? timeout_ms : 1'000));
      return timeout_ms >= 0 ? IoStatus::kTimeout : IoStatus::kClosed;
    }
    const std::uint32_t delay = fault_->plan_recv_delay();
    if (delay > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay));
    }
  }
  using Clock = std::chrono::steady_clock;
  const auto deadline = Clock::now() + std::chrono::milliseconds(
                                           timeout_ms < 0 ? 0 : timeout_ms);
  std::size_t got = 0;
  while (got < n) {
    int wait_ms = -1;
    if (timeout_ms >= 0) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      wait_ms = static_cast<int>(std::max<std::int64_t>(0, left.count()));
    }
    if (!wait_readable(fd_, wait_ms)) {
      // A partial frame followed by silence means the stream is desynced:
      // report it as closed, not as a clean timeout.
      return got == 0 ? IoStatus::kTimeout : IoStatus::kClosed;
    }
    const ssize_t r = ::recv(fd_, dst + got, n - got, 0);
    if (r == 0) return IoStatus::kClosed;
    if (r < 0) {
      if (errno == EINTR) continue;
      return IoStatus::kClosed;
    }
    got += static_cast<std::size_t>(r);
  }
  return IoStatus::kOk;
}

std::pair<Socket, Socket> Socket::make_pair() {
  int fds[2] = {-1, -1};
  MAVR_CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0,
             "socketpair failed");
  return {Socket(fds[0]), Socket(fds[1])};
}

std::optional<Endpoint> parse_endpoint(const std::string& spec) {
  Endpoint ep;
  if (spec.rfind("unix:", 0) == 0) {
    ep.kind = Endpoint::Kind::kUnix;
    ep.path = spec.substr(5);
    if (ep.path.empty()) return std::nullopt;
    return ep;
  }
  if (spec.rfind("tcp:", 0) == 0) {
    ep.kind = Endpoint::Kind::kTcp;
    std::string rest = spec.substr(4);
    std::string port_str;
    if (!rest.empty() && rest.front() == '[') {
      // Bracketed IPv6 literal: tcp:[::1]:9000
      const std::size_t close = rest.find("]:");
      if (close == std::string::npos) return std::nullopt;
      ep.host = rest.substr(1, close - 1);
      port_str = rest.substr(close + 2);
    } else {
      const std::size_t colon = rest.rfind(':');
      if (colon == std::string::npos) return std::nullopt;
      ep.host = rest.substr(0, colon);
      port_str = rest.substr(colon + 1);
    }
    if (ep.host.empty()) return std::nullopt;
    const auto port = parse_u64_in(port_str.c_str(), 0, 65535);
    if (!port) return std::nullopt;
    ep.port = static_cast<std::uint16_t>(*port);
    return ep;
  }
  // Bare path: AF_UNIX, the pre-endpoint spelling.
  if (spec.empty()) return std::nullopt;
  ep.kind = Endpoint::Kind::kUnix;
  ep.path = spec;
  return ep;
}

std::string endpoint_name(const Endpoint& ep) {
  if (ep.kind == Endpoint::Kind::kUnix) return "unix:" + ep.path;
  const bool v6 = ep.host.find(':') != std::string::npos;
  return "tcp:" + (v6 ? "[" + ep.host + "]" : ep.host) + ":" +
         std::to_string(ep.port);
}

Listener::Listener(Endpoint ep) : endpoint_(std::move(ep)) {
  const bool unix_path = endpoint_.kind == Endpoint::Kind::kUnix;
  std::string error;
  fd_ = open_endpoint(endpoint_, /*listen=*/true, &error);
  if (fd_ < 0) {
    if (unix_path) ::unlink(endpoint_.path.c_str());
    throw Error("cannot listen on " + endpoint_name(endpoint_) + ": " +
                error);
  }
  if (!unix_path) endpoint_.port = bound_port(fd_);
}

Listener::~Listener() {
  close();
  if (endpoint_.kind == Endpoint::Kind::kUnix) {
    ::unlink(endpoint_.path.c_str());
  }
}

void Listener::close() {
  if (fd_ >= 0) {
    // shutdown() (not close) unblocks a concurrent accept() without
    // racing fd reuse; the fd itself is reclaimed here afterwards.
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    fd_ = -1;
  }
}

Socket Listener::accept(int timeout_ms) {
  if (fd_ < 0 || !wait_readable(fd_, timeout_ms)) return Socket();
  const int fd = ::accept(fd_, nullptr, nullptr);
  if (fd < 0) return Socket();
  if (endpoint_.kind == Endpoint::Kind::kTcp) set_nodelay(fd);
  return Socket(fd);
}

Socket connect_endpoint(const Endpoint& ep) {
  std::string error;
  const int fd = open_endpoint(ep, /*listen=*/false, &error);
  if (fd < 0) return Socket();
  if (ep.kind == Endpoint::Kind::kTcp) set_nodelay(fd);
  return Socket(fd);
}

}  // namespace mavr::support
