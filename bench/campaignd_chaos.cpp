// campaignd chaos bench (DESIGN.md §14): completion time of one campaign
// swept over network fault rate × worker count, with the pool run by the
// real Supervisor over crash-prone workers — so the table reports what
// supervision and speculation actually cost, not a clean-room estimate.
//
// Every cell ends at the bit-exactness gate: the service aggregate under
// that cell's chaos must equal the in-process aggregate byte for byte, or
// the bench exits nonzero. Fault injection may move the wall-clock
// column; it must never move the bits.
//
// Columns beyond wall-clock are the robustness counters: worker respawns
// (supervisor restarts of crashed workers), speculative duplicate
// assignments, chunks reclaimed from dead/hung connections, duplicate
// results deduplicated at merge, and total injected transport faults
// (coordinator side).
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "bench_util.hpp"
#include "campaign/scenarios.hpp"
#include "campaignd/client.hpp"
#include "campaignd/coordinator.hpp"
#include "campaignd/supervisor.hpp"
#include "campaignd/worker.hpp"
#include "support/netfault.hpp"
#include "support/rng.hpp"

namespace {

using namespace mavr;

/// Thread-backed supervised worker running the real protocol loop. It
/// "crashes" (exits, connection drops) every `crash_after_chunks` chunks,
/// so the supervisor's restart path carries real load during the sweep.
class BenchWorker : public campaignd::WorkerHandle {
 public:
  BenchWorker(std::string endpoint, support::NetFaultPlane* plane,
              std::uint64_t crash_after_chunks, std::uint64_t seq) {
    thread_ = std::thread([this, endpoint = std::move(endpoint), plane,
                           crash_after_chunks, seq] {
      campaignd::WorkerOptions options;
      options.connect_attempts = 100;
      options.reconnect_backoff_ms = 5;
      options.reconnect_backoff_max_ms = 100;
      options.reply_timeout_ms = 400;
      options.max_chunks = crash_after_chunks;
      options.backoff_seed = seq + 1;
      options.fault_plane = plane;
      options.stop = &stop_;
      campaignd::run_worker(endpoint, options);
      done_.store(true);
    });
  }
  ~BenchWorker() override {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  bool alive() override { return !done_.load(); }
  void terminate() override { stop_.store(true); }
  void kill_now() override { stop_.store(true); }
  support::Socket* control() override { return nullptr; }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<bool> done_{false};
  std::thread thread_;
};

struct Cell {
  bool ok = false;
  double wall_s = 0;
  std::uint64_t respawns = 0;
  campaignd::CoordinatorCounters counters;
  std::uint64_t injected = 0;
};

Cell run_cell(double rate, int workers,
              const campaign::CampaignConfig& config,
              const campaign::CampaignStats& reference) {
  Cell cell;
  campaignd::CoordinatorConfig cc;
  cc.listen_endpoint = "unix:/tmp/mavr_chaos_bench.sock";
  cc.wait_hint_ms = 2;
  cc.worker_timeout_ms = 2'000;
  cc.speculation_min_ms = 500;
  cc.net_faults = support::NetFaultConfig::uniform(rate);
  cc.net_fault_seed = 0xFA010 + static_cast<std::uint64_t>(workers);
  campaignd::Coordinator coordinator(cc);
  coordinator.start();
  const std::string endpoint = coordinator.endpoint();

  support::NetFaultPlane worker_plane(support::NetFaultConfig::uniform(rate),
                                      support::Rng(0xBEEF));
  support::NetFaultPlane* plane = rate > 0 ? &worker_plane : nullptr;

  campaignd::SupervisorConfig sc;
  sc.min_workers = static_cast<std::size_t>(workers);
  sc.max_workers = static_cast<std::size_t>(workers);
  sc.tick_ms = 10;
  sc.restart_backoff_ms = 5;
  sc.restart_backoff_max_ms = 100;
  sc.heartbeat_timeout_ms = 0;      // thread workers have no control pipe
  sc.crash_loop_failures = 1'000'000;  // crashing is this bench's *job*
  campaignd::Supervisor supervisor(
      sc,
      [&endpoint, plane](std::uint64_t seq) {
        // Every worker walks away after 8 chunks; the supervisor must
        // keep respawning replacements for the campaign to finish.
        return std::make_unique<BenchWorker>(endpoint, plane,
                                             /*crash_after_chunks=*/8, seq);
      },
      nullptr);
  supervisor.start();

  campaignd::ClientOptions client;
  client.max_retries = 40;
  client.retry_backoff_ms = 5;
  client.retry_backoff_max_ms = 200;
  client.reply_timeout_ms = 400;

  const auto t0 = std::chrono::steady_clock::now();
  const auto submit = campaignd::submit_campaign(endpoint, config, client);
  if (!submit.ok) {
    std::printf("submit failed: %s\n", submit.error.c_str());
    return cell;
  }
  const auto done = campaignd::wait_campaign(endpoint, submit.campaign_id,
                                             client, /*interval_ms=*/5,
                                             /*timeout_ms=*/600'000);
  cell.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  cell.respawns = supervisor.stats().restarts;
  supervisor.stop();
  cell.counters = coordinator.counters();
  cell.injected = coordinator.net_fault_stats().total();
  coordinator.stop();

  if (!done.ok) {
    std::printf("wait failed: %s\n", done.error.c_str());
    return cell;
  }
  cell.ok = std::memcmp(&done.status.stats, &reference,
                        sizeof reference) == 0;
  if (!cell.ok) {
    std::printf("BIT-EXACTNESS VIOLATION at rate %.2f, %d workers\n", rate,
                workers);
  }
  return cell;
}

}  // namespace

int main() {
  using namespace mavr;
  campaign::CampaignConfig config;
  config.scenario = campaign::Scenario::kBruteForceRerand;
  config.trials = 1'280;  // 20 chunks: several crash/respawn generations
  config.jobs = 4;
  config.seed = 0xC0FFEE;
  config.n_functions = 6;

  std::printf("== campaignd chaos: fault rate x supervised workers ==\n");
  std::printf("campaign: %llu trials, brute-force re-rand n=%u\n\n",
              static_cast<unsigned long long>(config.trials),
              config.n_functions);
  const campaign::CampaignStats reference = campaign::run_campaign(config);

  std::printf("%-7s %-8s %-9s %-9s %-7s %-9s %-7s %-8s %-6s\n", "rate",
              "workers", "wall (s)", "respawns", "specul", "reclaimed",
              "dupes", "injected", "bits");
  bool all_ok = true;
  for (const double rate : {0.0, 0.01, 0.05}) {
    for (const int workers : {1, 2, 4}) {
      const Cell cell = run_cell(rate, workers, config, reference);
      all_ok = all_ok && cell.ok;
      std::printf("%-7.2f %-8d %-9.2f %-9llu %-7llu %-9llu %-7llu %-8llu %s\n",
                  rate, workers, cell.wall_s,
                  static_cast<unsigned long long>(cell.respawns),
                  static_cast<unsigned long long>(
                      cell.counters.speculative_assigns),
                  static_cast<unsigned long long>(
                      cell.counters.chunks_reclaimed),
                  static_cast<unsigned long long>(
                      cell.counters.duplicate_results),
                  static_cast<unsigned long long>(cell.injected),
                  cell.ok ? "OK" : "DIVERGED");
    }
  }
  if (!all_ok) {
    std::printf("\nFAIL: at least one cell diverged from in-process\n");
    return 1;
  }
  std::printf("\nall cells bit-identical to in-process\n");
  return 0;
}
