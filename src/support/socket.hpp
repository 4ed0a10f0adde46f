// Stream-socket transport for the campaignd coordinator/worker split
// (DESIGN.md §12–§13).
//
// Two interchangeable transports behind one `Listener` and one
// `connect_endpoint`:
//
//  * AF_UNIX — the single-machine default. A filesystem socket gives
//    process isolation, a namable rendezvous point, kill-driven connection
//    teardown, and filesystem-permission access control for free.
//  * TCP — the multi-machine transport. Same byte-stream semantics, so the
//    framed protocol above is unchanged; what TCP does *not* give is
//    filesystem access control, which is why the campaignd protocol layers
//    a challenge-response handshake on top (protocol.hpp).
//
// Endpoints are named by a spec string — `unix:/path`, `tcp:host:port`
// (IPv6 hosts in brackets: `tcp:[::1]:9000`), or a bare filesystem path
// which reads as AF_UNIX for backward compatibility — parsed once by
// `parse_endpoint`.
//
// The API is otherwise three pieces: an RAII fd (`Socket`) with
// exact-length timed I/O, a bound listener, and a one-shot connect.
// Retrying is the caller's: a refused connect is one more transient
// failure on its support::Backoff ladder.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>

namespace mavr::support {

/// Outcome of a timed read. kTimeout only when *nothing* arrived before
/// the deadline; bytes followed by silence or EOF is kClosed (the stream
/// is mid-frame and unusable).
enum class IoStatus { kOk, kTimeout, kClosed };

/// Injection hook a Socket consults on every send/recv when armed — the
/// seam the chaos plane (support/netfault) decorates transport through.
/// A hook serves exactly one Socket (per-connection state such as a
/// half-open hang lives here), so implementations need no locking of
/// their own beyond any shared tally they report into.
class SocketFaultHook {
 public:
  virtual ~SocketFaultHook() = default;

  /// What one send_all should do to its buffer. Defaults are "deliver
  /// intact".
  struct SendPlan {
    bool drop = false;       ///< swallow silently; caller still sees success
    bool half_open = false;  ///< go permanently silent (this send and on)
    /// Flip `corrupt_mask` into byte `corrupt_at` (when < len) — must be
    /// caught by the receiver's CRC framing, never silently merged.
    std::size_t corrupt_at = SIZE_MAX;
    std::uint8_t corrupt_mask = 0;
    /// Short write: deliver only this prefix, then shut the write side
    /// down (the peer sees a torn frame followed by EOF).
    std::size_t truncate_to = SIZE_MAX;
    std::uint32_t delay_ms = 0;  ///< stall before transmitting
  };
  virtual SendPlan plan_send(std::size_t len) = 0;

  /// Stall (ms) injected before the next read; 0 = none.
  virtual std::uint32_t plan_recv_delay() = 0;

  /// True once the connection has gone half-open: reads yield nothing
  /// until the caller's own timeout declares the peer dead.
  virtual bool recv_hung() = 0;
};

/// Owning wrapper over a connected stream-socket fd. Move-only.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }
  Socket(Socket&& other) noexcept
      : fd_(other.release()), fault_(std::move(other.fault_)) {}
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  int release();
  void close();

  /// Arms fault injection on this socket. The hook rides along on move
  /// (the coordinator arms an accepted socket, then moves it into its
  /// connection handler). Null disarms.
  void set_fault_hook(std::shared_ptr<SocketFaultHook> hook) {
    fault_ = std::move(hook);
  }
  bool fault_armed() const { return fault_ != nullptr; }

  /// Writes all of `data`; false on any error (peer gone). Never raises
  /// SIGPIPE.
  bool send_all(std::span<const std::uint8_t> data);

  /// Reads exactly `n` bytes. `timeout_ms < 0` waits forever.
  IoStatus recv_exact(std::uint8_t* dst, std::size_t n, int timeout_ms);

  /// Connected AF_UNIX socketpair (in-process protocol tests).
  static std::pair<Socket, Socket> make_pair();

 private:
  int fd_ = -1;
  std::shared_ptr<SocketFaultHook> fault_;
};

/// A parsed transport address: where a coordinator listens / a peer
/// connects.
struct Endpoint {
  enum class Kind { kUnix, kTcp };
  Kind kind = Kind::kUnix;
  std::string path;        ///< kUnix: filesystem socket path
  std::string host;        ///< kTcp: hostname or numeric address
  std::uint16_t port = 0;  ///< kTcp: port (0 = ephemeral, listeners only)
};

/// Parses `unix:PATH`, `tcp:HOST:PORT`, `tcp:[V6HOST]:PORT`, or a bare
/// path (AF_UNIX). nullopt on malformed specs (empty host/path, bad or
/// out-of-range port).
std::optional<Endpoint> parse_endpoint(const std::string& spec);

/// Canonical spec string for `ep` — parseable back by parse_endpoint.
std::string endpoint_name(const Endpoint& ep);

/// Bound + listening stream socket on either transport. An AF_UNIX
/// listener replaces a stale socket file at its path and unlinks the path
/// on destruction; a TCP listener sets SO_REUSEADDR, and the connections
/// it accepts get TCP_NODELAY (frames are small and latency-sensitive).
class Listener {
 public:
  /// Binds and listens on `ep`. TCP port 0 asks the kernel for an
  /// ephemeral port. Throws support::Error on resolution or bind failure.
  explicit Listener(Endpoint ep);
  ~Listener();
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Accepts one connection; invalid Socket on timeout or after close().
  Socket accept(int timeout_ms);

  /// Stops accepting and releases the fd. Call after the accepting thread
  /// has stopped (accept() takes a timeout precisely so its loop can poll
  /// a stop flag instead of blocking forever).
  void close();

  /// The endpoint actually bound — for TCP with port 0 this carries the
  /// kernel-assigned ephemeral port, so peers can be pointed at it.
  const Endpoint& endpoint() const { return endpoint_; }

 private:
  Endpoint endpoint_;
  int fd_ = -1;
};

/// One connection attempt to `ep`, whatever its transport. Invalid Socket
/// when it is refused or the host does not resolve. TCP_NODELAY is set on
/// a TCP connection.
Socket connect_endpoint(const Endpoint& ep);

}  // namespace mavr::support
