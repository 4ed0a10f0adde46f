// campaignd service scaling: trials/sec by worker count when the same
// campaign runs through the coordinator/worker service instead of the
// in-process thread pool, plus the cross-process determinism check — the
// service aggregate must be bit-identical to the in-process one at every
// worker count (DESIGN.md §12–§13).
//
// The sweep runs on both transports: AF_UNIX (the single-machine
// default) and TCP loopback (the multi-machine path — loopback puts a
// floor under its protocol cost; real networks only add latency, which
// cannot affect the bits). The bit-exactness gate applies to every cell:
// any mismatch exits nonzero.
//
// Workload matches bench/campaign_scaling.cpp (re-randomized brute-force
// model, n=6), so the tables are directly comparable: the delta is the
// protocol + scheduling overhead of sharding 64-trial chunks over a
// stream socket.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "campaign/scenarios.hpp"
#include "campaignd/client.hpp"
#include "campaignd/coordinator.hpp"
#include "campaignd/worker.hpp"

namespace {

/// One worker-count sweep over `listen_endpoint`. Returns false on any
/// service failure or bit-exactness violation.
bool sweep(const char* label, const std::string& listen_endpoint,
           const mavr::campaign::CampaignConfig& config,
           const mavr::campaign::CampaignStats& reference) {
  using namespace mavr;
  std::printf("-- %s --\n", label);
  std::printf("%-8s %-12s %-14s %-10s %-12s\n", "workers", "wall (s)",
              "trials/sec", "speedup", "stats match");

  double base_s = 0;
  for (int workers : {1, 2, 4, 8}) {
    campaignd::CoordinatorConfig cc;
    cc.listen_endpoint = listen_endpoint;
    cc.wait_hint_ms = 2;
    campaignd::Coordinator coordinator(cc);
    coordinator.start();
    // The *bound* endpoint: with tcp:...:0 this carries the real port.
    const std::string endpoint = coordinator.endpoint();

    std::atomic<bool> stop{false};
    std::vector<std::thread> pool;
    for (int i = 0; i < workers; ++i) {
      pool.emplace_back([&endpoint, &stop] {
        campaignd::WorkerOptions options;
        options.connect_attempts = 20;
        options.stop = &stop;
        campaignd::run_worker(endpoint, options);
      });
    }

    const auto t0 = std::chrono::steady_clock::now();
    const campaignd::SubmitOutcome submit =
        campaignd::submit_campaign(endpoint, config);
    if (!submit.ok) {
      std::printf("submit failed: %s\n", submit.error.c_str());
      return false;
    }
    const campaignd::PollOutcome done = campaignd::wait_campaign(
        endpoint, submit.campaign_id, {}, /*interval_ms=*/5);
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    stop.store(true);
    for (std::thread& t : pool) t.join();
    coordinator.stop();
    if (!done.ok) {
      std::printf("wait failed: %s\n", done.error.c_str());
      return false;
    }
    if (workers == 1) base_s = wall_s;

    // Bitwise comparison against the in-process run: determinism across
    // the process boundary means *equality*, not closeness.
    const bool identical =
        std::memcmp(&done.status.stats, &reference, sizeof reference) == 0;
    std::printf("%-8d %-12.3f %-14.0f %-10.2f %-12s\n", workers, wall_s,
                static_cast<double>(config.trials) / wall_s,
                base_s / wall_s, identical ? "bit-exact" : "MISMATCH (!)");
    if (!identical) return false;
  }
  std::printf("\n");
  return true;
}

}  // namespace

int main() {
  using namespace mavr;
  bench::heading("campaignd service scaling (trials/sec by worker count)");

  campaign::CampaignConfig config;
  config.scenario = campaign::Scenario::kBruteForceRerand;
  config.n_functions = 6;
  config.trials = 20'000;
  config.seed = 0xCA4;
  config.jobs = 1;

  const auto r0 = std::chrono::steady_clock::now();
  const campaign::CampaignStats reference = campaign::run_campaign(config);
  const double ref_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - r0)
          .count();

  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("workload: %llu trials of %s (n=%u), hardware threads: %u\n",
              static_cast<unsigned long long>(config.trials),
              campaign::scenario_name(config.scenario), config.n_functions,
              hw);
  std::printf("in-process baseline (jobs=1): %.3f s\n\n", ref_s);

  if (!sweep("AF_UNIX", "unix:/tmp/mavr_campaignd_bench.sock", config,
             reference)) {
    return 1;
  }
  if (!sweep("TCP loopback", "tcp:127.0.0.1:0", config, reference)) {
    return 1;
  }

  std::printf("every transport and worker count reproduces the in-process "
              "aggregate\nbit-for-bit: chunks are deterministic functions of "
              "(config, index), merged in\nindex order wherever they were "
              "computed.\n");
  return 0;
}
