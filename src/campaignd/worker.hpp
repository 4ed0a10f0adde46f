// mavr-campaignd worker: connects to a coordinator (AF_UNIX or TCP),
// authenticates, pulls chunk assignments, evaluates them with the same
// `run_chunk_range` the in-process engine uses, and streams the results
// back (DESIGN.md §12–§13).
//
// The worker is stateless between assignments — everything a chunk needs
// is (config, chunk index), so a worker can die at any point and the
// coordinator simply re-assigns. The only cached state is the board
// SimFixture (one firmware generate+link), shared across campaigns
// because every board scenario runs the same stock testapp build.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "support/netfault.hpp"

namespace mavr::campaignd {

struct WorkerOptions {
  /// Consecutive refused connects before giving up (covers both the
  /// initial connect racing the coordinator's bind, and reconnects after
  /// the coordinator restarts). The reconnect ladder below paces them: at
  /// its defaults, 21 attempts wait about 15 s in all.
  int connect_attempts = 21;
  /// Exit after completing this many chunks; 0 = unlimited. Lets tests
  /// model a worker that dies partway through a campaign.
  std::uint64_t max_chunks = 0;
  /// After completing this many chunks, wedge: hold the connection (and
  /// any remaining assignment) while making no progress until `stop`.
  /// 0 = never. Models the straggler the coordinator's speculative
  /// re-assignment exists to route around.
  std::uint64_t stall_after_chunks = 0;
  /// Shared handshake token; must match the coordinator's. Empty matches
  /// a coordinator configured without one (the AF_UNIX default).
  std::string auth_token;
  /// Cooperative stop: checked between trials (aborting the in-flight
  /// chunk), between protocol round-trips, and within ~100ms inside a
  /// kWait sleep.
  const std::atomic<bool>* stop = nullptr;
  /// Reply deadline per request before the connection is declared dead
  /// and re-established. Chaos tests shrink this so a dropped frame
  /// costs milliseconds, not the production-sized timeout.
  int reply_timeout_ms = 10'000;
  /// Full-jitter exponential backoff before each reconnect, after a
  /// refused connect or a broken connection (support::Backoff) — distinct
  /// seeds keep a fleet that lost one coordinator from reconnecting in
  /// lockstep.
  int reconnect_backoff_ms = 25;
  int reconnect_backoff_max_ms = 2'000;
  std::uint64_t backoff_seed = 1;
  /// Chaos plane: when set, every connection this worker opens is armed
  /// with a fault stream (worker-side injection; the coordinator arms
  /// its own side via CoordinatorConfig::net_faults).
  support::NetFaultPlane* fault_plane = nullptr;
};

/// Runs the pull loop against the coordinator at `endpoint`
/// (`unix:/path`, `tcp:host:port`, or a bare AF_UNIX path) until the
/// coordinator says kShutdown, the connection cannot be (re)established,
/// the handshake is rejected (wrong token — permanent, no retry),
/// `stop` is raised, or `max_chunks` is reached.
/// Returns the number of chunks completed and acknowledged.
std::uint64_t run_worker(const std::string& endpoint,
                         const WorkerOptions& options = {});

}  // namespace mavr::campaignd
