// Deterministic network fault injection for the campaign service's
// stream transports (DESIGN.md §14).
//
// Same shape as support::FaultPlane (§9), lifted from the reflash links
// to the coordinator ↔ worker/client sockets: one seeded NetFaultPlane
// owns the schedule, every connection draws from its own child streams
// (Rng::fork by connection index × direction), and a tally of injected
// faults is kept for tests and benches. The plane decorates the
// transport through the SocketFaultHook seam in support/socket:
// NetFaultPlane::arm attaches a connection's streams to a Socket, and
// both ends use it — the coordinator on each socket it accepts, workers
// and clients on each socket they dial — so either end of the wire (or
// both) can be made hostile independently. Injected faults are the ones
// real multi-machine deployments produce:
//
//  * frame drops            — send succeeds locally, peer sees silence;
//  * byte corruption        — one transit bit flips; the CRC framing
//                             (campaignd/protocol) must catch it;
//  * bounded delays         — send/recv stalls inside the peer's timeout;
//  * short writes           — a frame prefix then EOF (torn stream);
//  * half-open hangs        — the connection goes permanently silent
//                             without a FIN, the classic pulled-cable.
//
// The schedule is a pure function of (config, seed, connection order):
// with a fixed accept sequence it replays exactly, and at any seed the
// service's results must stay bit-identical to in-process — faults may
// cost time, never bits.
#pragma once

#include <cstdint>
#include <memory>

#include "support/rng.hpp"
#include "support/socket.hpp"

namespace mavr::support {

/// Per-send/per-recv injection probabilities. All zero (never injects)
/// by default. A plane injects on both the outbound and the inbound half
/// of its end of the wire.
struct NetFaultConfig {
  double frame_drop = 0;    ///< per send: swallowed, reported as sent
  double byte_corrupt = 0;  ///< per send: one transit bit flipped
  double short_write = 0;   ///< per send: prefix + EOF (torn stream)
  double half_open = 0;     ///< per send: connection goes silent for good
  /// Per send and per recv: a stall uniform in [1, kDelayMaxMs] ms
  /// (netfault.cpp).
  double delay = 0;

  /// Uniform fault pressure `rate` on every class except half_open, which
  /// is scaled down (a hang costs a full peer timeout to recover from, so
  /// at equal rates it dominates wall-clock and masks the other classes).
  static NetFaultConfig uniform(double rate);

  bool any() const {
    return frame_drop > 0 || byte_corrupt > 0 || short_write > 0 ||
           half_open > 0 || delay > 0;
  }
};

/// Tally of injected faults across every connection of one plane.
/// Snapshot via NetFaultPlane::stats().
struct NetFaultStats {
  std::uint64_t frames_dropped = 0;
  std::uint64_t frames_corrupted = 0;
  std::uint64_t short_writes = 0;
  std::uint64_t half_opens = 0;
  std::uint64_t delays = 0;
  std::uint64_t connections = 0;  ///< fault streams handed out

  std::uint64_t total() const {
    return frames_dropped + frames_corrupted + short_writes + half_opens +
           delays;
  }
};

class NetFaultPlane {
 public:
  /// Disarmed plane: hands out no hooks, injects nothing.
  NetFaultPlane() : NetFaultPlane(NetFaultConfig{}, Rng(0)) {}

  /// Armed plane; connection streams fork off `rng` by connection index.
  NetFaultPlane(const NetFaultConfig& config, const Rng& rng);
  ~NetFaultPlane();
  NetFaultPlane(const NetFaultPlane&) = delete;
  NetFaultPlane& operator=(const NetFaultPlane&) = delete;

  bool armed() const;
  const NetFaultConfig& config() const;

  /// Fault streams for the next connection (send stream = fork(2k),
  /// recv stream = fork(2k+1) of the plane's rng). Null when disarmed.
  /// Thread-safe: the accept loop and connecting workers may race.
  std::shared_ptr<SocketFaultHook> fork_connection();

  /// Arms `sock` with a freshly forked connection stream (no-op when the
  /// plane is disarmed or the socket invalid). Used on both ends of a
  /// wire: on each accepted socket and on each dialed one.
  void arm(Socket& sock);

  /// Snapshot of the injected-fault tally (safe to call concurrently
  /// with live connections).
  NetFaultStats stats() const;

  struct Impl;  ///< internal; public only so connection hooks can tally

 private:
  std::unique_ptr<Impl> impl_;
};

}  // namespace mavr::support
