// mavr-campaignd — sharded, resumable, supervised campaign service
// (DESIGN.md §12–§14).
//
//   mavr-campaignd --listen ENDPOINT [--workers N | --min-workers N
//                  --max-workers N] [--checkpoint FILE] [--max-queue N]
//                  [--grain N] [--auth-token-file FILE]
//                  [--net-fault-rate F --net-fault-seed N]
//   mavr-campaignd --worker --connect ENDPOINT [--auth-token-file FILE]
//
// ENDPOINT is `unix:/path` (single machine, filesystem-permission access
// control), `tcp:host:port` (multi-machine; port 0 picks an ephemeral
// port and prints it), or a bare path (AF_UNIX shorthand).
//
// Daemon mode binds a coordinator at ENDPOINT and runs a *supervised*
// worker pool: forked worker processes that connect back to it, each
// heartbeating its supervisor over an inherited socketpair. A crashed
// worker is respawned (exponential backoff, crash-loop quarantine), a
// wedged one is killed and replaced, and the pool scales between
// --min-workers and --max-workers with the coordinator's queue depth.
// With --checkpoint every completed chunk is persisted and fsync-batched,
// so killing the daemon mid-campaign loses nothing: restart it, resubmit
// the same config, and only the missing chunks run.
//
// SIGINT/SIGTERM shuts down gracefully: the coordinator stops admitting
// and assigning, in-flight assignments drain (bounded), workers stop
// cleanly, and the checkpoint store is fsynced before exit.
//
// Worker mode runs a single worker process against an existing
// coordinator — add capacity from other terminals, cgroups, or *other
// machines* over TCP. On TCP, set --auth-token-file on both sides: every
// connection must answer an HMAC challenge over the shared token before
// any chunk is assigned.
//
// --net-fault-rate arms deterministic fault injection (frame drops,
// corruption, delays, short writes, half-open hangs) on every accepted
// connection — the chaos knob; results stay bit-identical, only slower.
//
// Campaign results are bit-identical to `mavr-campaign` run in-process,
// for any worker count, any transport, across kill/resume, and under
// injected faults.
#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include <sys/wait.h>
#include <unistd.h>

#include "campaignd/coordinator.hpp"
#include "campaignd/supervisor.hpp"
#include "campaignd/worker.hpp"
#include "support/error.hpp"
#include "support/parse.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

/// Worker-process cooperative stop: raised by SIGTERM/SIGINT and by a
/// lost supervisor heartbeat; polled by run_worker between trials.
std::atomic<bool> g_worker_stop{false};

void on_worker_signal(int) { g_worker_stop.store(true); }

/// Heartbeat cadence on the supervisor control channel. The supervisor's
/// wedge timeout must dwarf this (default 5 s vs 500 ms).
constexpr int kHeartbeatIntervalMs = 500;

/// Bound on waiting for in-flight assignments at shutdown; past it the
/// coordinator cuts off (safe: chunks reclaim via checkpoint/resubmit).
constexpr int kDrainTimeoutMs = 5'000;

int usage() {
  std::fprintf(
      stderr,
      "usage: mavr-campaignd --listen ENDPOINT [--workers N]\n"
      "                      [--min-workers N] [--max-workers N]\n"
      "                      [--checkpoint FILE] [--max-queue N] "
      "[--grain N]\n"
      "                      [--auth-token-file FILE]\n"
      "                      [--net-fault-rate F] [--net-fault-seed N]\n"
      "       mavr-campaignd --worker --connect ENDPOINT "
      "[--auth-token-file FILE]\n"
      "ENDPOINT: unix:/path | tcp:host:port | /bare/path (AF_UNIX)\n");
  return 2;
}

int bad_value(const char* flag, const char* value) {
  std::fprintf(stderr, "invalid value for %s: '%s'\n", flag, value);
  return usage();
}

/// Worker body shared by --worker mode and forked pool children:
/// SIGTERM-aware, generous reconnect budget (it may start before the
/// coordinator binds, and should ride out a coordinator restart).
/// `control`, when valid, is the inherited supervisor channel: a
/// heartbeat thread pings it, and losing the supervisor raises stop —
/// an orphaned worker must not outlive its daemon.
int worker_main(const std::string& endpoint, const std::string& token,
                mavr::support::Socket control) {
  std::signal(SIGTERM, on_worker_signal);
  std::signal(SIGINT, on_worker_signal);
  std::thread heartbeat;
  if (control.valid()) {
    heartbeat = std::thread([&control] {
      mavr::campaignd::heartbeat_client(control, kHeartbeatIntervalMs,
                                        g_worker_stop);
      g_worker_stop.store(true);  // supervisor gone (or stop): wind down
    });
  }
  int rc = 0;
  try {
    mavr::campaignd::WorkerOptions options;
    options.connect_attempts = 50;  // about 44 s of refused connects
    options.auth_token = token;
    options.stop = &g_worker_stop;
    options.backoff_seed = static_cast<std::uint64_t>(getpid());
    const std::uint64_t chunks = mavr::campaignd::run_worker(endpoint,
                                                             options);
    std::fprintf(stderr, "worker %d: %llu chunks completed\n", getpid(),
                 static_cast<unsigned long long>(chunks));
  } catch (const mavr::support::Error& e) {
    std::fprintf(stderr, "worker %d: error: %s\n", getpid(), e.what());
    rc = 1;
  }
  g_worker_stop.store(true);
  if (heartbeat.joinable()) heartbeat.join();
  return rc;
}

/// Supervisor handle over one forked worker process. alive() reaps, so
/// no zombies accumulate; the destructor is the last-resort reaper.
class ForkWorker : public mavr::campaignd::WorkerHandle {
 public:
  ForkWorker(pid_t pid, mavr::support::Socket control)
      : pid_(pid), control_(std::move(control)) {}
  ~ForkWorker() override {
    if (!reaped_) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }

  bool alive() override {
    if (reaped_) return false;
    int status = 0;
    const pid_t rc = ::waitpid(pid_, &status, WNOHANG);
    if (rc == 0) return true;
    reaped_ = true;  // exited (rc == pid_) or vanished (rc < 0)
    return false;
  }
  void terminate() override {
    if (!reaped_) ::kill(pid_, SIGTERM);
  }
  void kill_now() override {
    if (!reaped_) ::kill(pid_, SIGKILL);
  }
  mavr::support::Socket* control() override { return &control_; }

 private:
  pid_t pid_;
  mavr::support::Socket control_;
  bool reaped_ = false;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace mavr;
  campaignd::CoordinatorConfig config;
  campaignd::SupervisorConfig pool;
  pool.min_workers = 4;
  pool.max_workers = 4;
  bool worker_mode = false;
  std::string connect_endpoint;
  std::string token_file;

  for (int i = 1; i < argc; ++i) {
    const auto arg_value = [&](const char* name) -> const char* {
      if (std::strcmp(argv[i], name) != 0) return nullptr;
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--worker") == 0) {
      worker_mode = true;
    } else if (const char* v = arg_value("--listen")) {
      config.listen_endpoint = v;
    } else if (const char* v = arg_value("--connect")) {
      connect_endpoint = v;
    } else if (const char* v = arg_value("--checkpoint")) {
      config.checkpoint_path = v;
    } else if (const char* v = arg_value("--auth-token-file")) {
      token_file = v;
    } else if (const char* v = arg_value("--workers")) {
      // Fixed-size pool: min == max (supervision still restarts crashes).
      const auto n = support::parse_u64_in(v, 1, 64);
      if (!n) return bad_value("--workers", v);
      pool.min_workers = pool.max_workers = static_cast<std::size_t>(*n);
    } else if (const char* v = arg_value("--min-workers")) {
      const auto n = support::parse_u64_in(v, 1, 64);
      if (!n) return bad_value("--min-workers", v);
      pool.min_workers = static_cast<std::size_t>(*n);
    } else if (const char* v = arg_value("--max-workers")) {
      const auto n = support::parse_u64_in(v, 1, 64);
      if (!n) return bad_value("--max-workers", v);
      pool.max_workers = static_cast<std::size_t>(*n);
    } else if (const char* v = arg_value("--max-queue")) {
      const auto n = support::parse_u64_in(v, 1, 1024);
      if (!n) return bad_value("--max-queue", v);
      config.max_queue = static_cast<std::size_t>(*n);
    } else if (const char* v = arg_value("--grain")) {
      const auto n = support::parse_u64_in(v, 1, 1024);
      if (!n) return bad_value("--grain", v);
      config.assign_chunks = static_cast<std::uint32_t>(*n);
    } else if (const char* v = arg_value("--net-fault-rate")) {
      const auto f = support::parse_f64(v);
      if (!f || *f < 0.0 || *f > 1.0) return bad_value("--net-fault-rate", v);
      config.net_faults = support::NetFaultConfig::uniform(*f);
    } else if (const char* v = arg_value("--net-fault-seed")) {
      const auto n = support::parse_u64(v);
      if (!n) return bad_value("--net-fault-seed", v);
      config.net_fault_seed = *n;
    } else {
      std::fprintf(stderr, "bad argument: %s\n", argv[i]);
      return usage();
    }
  }
  if (pool.max_workers < pool.min_workers) {
    std::fprintf(stderr, "--max-workers must be >= --min-workers\n");
    return usage();
  }

  std::string token;
  if (!token_file.empty() &&
      !campaignd::read_token_file(token_file, &token)) {
    std::fprintf(stderr, "cannot read --auth-token-file %s\n",
                 token_file.c_str());
    return 1;
  }
  config.auth_token = token;

  if (worker_mode) {
    if (connect_endpoint.empty()) {
      std::fprintf(stderr, "--worker requires --connect ENDPOINT\n");
      return usage();
    }
    return worker_main(connect_endpoint, token, support::Socket());
  }
  if (config.listen_endpoint.empty()) return usage();

  int rc = 0;
  try {
    campaignd::Coordinator coordinator(config);
    coordinator.start();
    // The pool forks workers after the endpoint is bound: over TCP with
    // port 0 the children must be told the *resolved* port. The accept
    // thread already exists at fork time; the children never touch the
    // parent's coordinator state (glibc's atfork handlers keep malloc
    // usable in the child), and they connect with retries.
    const std::string endpoint = coordinator.endpoint();
    const auto factory =
        [&endpoint, &token](std::uint64_t)
        -> std::unique_ptr<campaignd::WorkerHandle> {
      auto [parent_end, child_end] = support::Socket::make_pair();
      const pid_t pid = fork();
      if (pid < 0) {
        std::perror("fork");
        return nullptr;  // supervisor retries on its backoff ladder
      }
      if (pid == 0) {
        parent_end.close();
        _exit(worker_main(endpoint, token, std::move(child_end)));
      }
      return std::make_unique<ForkWorker>(pid, std::move(parent_end));
    };
    campaignd::Supervisor supervisor(
        pool, factory,
        [&coordinator] { return coordinator.queue_depth().pending_chunks; });
    supervisor.start();

    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    std::printf(
        "mavr-campaignd: listening on %s (workers %zu..%zu%s%s%s%s)\n",
        endpoint.c_str(), pool.min_workers, pool.max_workers,
        config.checkpoint_path.empty() ? "" : ", checkpoint ",
        config.checkpoint_path.c_str(), token.empty() ? "" : ", token auth",
        config.net_faults.any() ? ", CHAOS armed" : "");
    while (!g_stop) usleep(200'000);

    // Graceful shutdown: stop admitting/assigning, let in-flight
    // assignments land (bounded), stop the pool politely, fsync the
    // checkpoint store, then tear the coordinator down.
    std::printf("mavr-campaignd: draining\n");
    const bool drained = coordinator.drain(kDrainTimeoutMs);
    supervisor.stop();
    coordinator.stop();
    const auto counters = coordinator.counters();
    std::printf(
        "mavr-campaignd: shut down %s (%llu chunks assigned, "
        "%llu speculative, %llu reclaimed)\n",
        drained ? "clean" : "with assignments abandoned",
        static_cast<unsigned long long>(counters.chunks_assigned),
        static_cast<unsigned long long>(counters.speculative_assigns),
        static_cast<unsigned long long>(counters.chunks_reclaimed));
  } catch (const support::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    rc = 1;
  }
  return rc;
}
