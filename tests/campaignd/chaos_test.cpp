// Chaos soak (DESIGN.md §14, `ctest -L chaos`): full campaigns over a
// deliberately hostile transport, swept across fault rates, plus the
// compound scenario — faults, crash-looping workers, and speculative
// duplicates at once. The acceptance bar never moves: stats and exports
// bit-identical to in-process, bounded wall-clock, no livelock. Rate 0
// runs as the control arm and must inject *nothing*.
//
// The suite is sanitizer-friendly by construction (threads, no fork) and
// is expected to pass under MAVR_SANITIZE and MAVR_TSAN builds.
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/export.hpp"
#include "campaign/scenarios.hpp"
#include "campaignd/client.hpp"
#include "campaignd/coordinator.hpp"
#include "campaignd/worker.hpp"
#include "support/netfault.hpp"
#include "support/rng.hpp"

namespace {

using namespace mavr;

campaign::CampaignConfig model_config(std::uint64_t trials) {
  campaign::CampaignConfig config;
  config.scenario = campaign::Scenario::kBruteForceRerand;
  config.trials = trials;
  config.jobs = 4;
  config.seed = 0xC0FFEE;
  config.n_functions = 5;
  return config;
}

bool bitwise_equal(const campaign::CampaignStats& a,
                   const campaign::CampaignStats& b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

std::string unix_endpoint(const char* tag) {
  std::string name =
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  for (char& c : name) {
    if (c == '/') c = '_';
  }
  // The pid keeps concurrent runs of the same test (e.g. the asan and
  // tsan build trees side by side) off each other's socket.
  return "unix:" + ::testing::TempDir() + "mavr_chaos_" + name + tag + "_" +
         std::to_string(::getpid()) + ".sock";
}

/// Worker threads whose every connection is armed from `plane` (when
/// non-null) — chaos on the worker side of the wire, independent of the
/// coordinator side.
class ChaosPool {
 public:
  ChaosPool(std::string endpoint, support::NetFaultPlane* plane)
      : endpoint_(std::move(endpoint)), plane_(plane) {}
  ~ChaosPool() { join(); }

  void start(int n, std::uint64_t max_chunks = 0) {
    for (int i = 0; i < n; ++i) {
      threads_.emplace_back([this, max_chunks] {
        campaignd::WorkerOptions options;
        options.connect_attempts = 200;
        options.reconnect_backoff_ms = 5;
        options.reconnect_backoff_max_ms = 100;
        options.reply_timeout_ms = 400;  // bound what a half-open costs
        options.max_chunks = max_chunks;
        options.stop = &stop_;
        options.fault_plane = plane_;
        campaignd::run_worker(endpoint_, options);
      });
    }
  }
  void join() {
    stop_.store(true);
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
    threads_.clear();
    stop_.store(false);
  }

 private:
  std::string endpoint_;
  support::NetFaultPlane* plane_;
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// One full campaign with fault pressure `rate` on BOTH ends of every
/// connection. Returns the coordinator-side injected-fault total.
std::uint64_t run_chaos_campaign(double rate, int workers,
                                 const campaign::CampaignConfig& config,
                                 const campaign::CampaignStats& expect,
                                 const char* tag) {
  campaignd::CoordinatorConfig cc;
  cc.listen_endpoint = unix_endpoint(tag);
  cc.wait_hint_ms = 5;
  cc.worker_timeout_ms = 3'000;  // reclaim from hung peers promptly
  cc.speculation_min_ms = 500;
  cc.net_faults = support::NetFaultConfig::uniform(rate);
  cc.net_fault_seed = 0xFA017;  // fixed: the schedule replays exactly
  campaignd::Coordinator coordinator(cc);
  coordinator.start();

  support::NetFaultPlane worker_plane(support::NetFaultConfig::uniform(rate),
                                      support::Rng(0xFA018));
  ChaosPool pool(coordinator.endpoint(), rate > 0 ? &worker_plane : nullptr);
  pool.start(workers);

  // The client rides the same storm as everyone else.
  support::NetFaultPlane client_plane(support::NetFaultConfig::uniform(rate),
                                      support::Rng(0xFA019));
  campaignd::ClientOptions client;
  client.fault_plane = rate > 0 ? &client_plane : nullptr;
  client.max_retries = 40;
  client.retry_backoff_ms = 5;
  client.retry_backoff_max_ms = 200;
  client.reply_timeout_ms = 400;

  const auto submit =
      campaignd::submit_campaign(coordinator.endpoint(), config, client);
  EXPECT_TRUE(submit.ok) << submit.error;
  const auto done = campaignd::wait_campaign(
      coordinator.endpoint(), submit.campaign_id, client,
      /*interval_ms=*/10, /*timeout_ms=*/240'000);
  EXPECT_TRUE(done.ok) << done.error;
  EXPECT_EQ(done.status.state, campaignd::CampaignState::kDone);

  // Chaos may cost time, never bits — stats and exports byte-for-byte.
  EXPECT_TRUE(bitwise_equal(done.status.stats, expect))
      << "stats diverged at fault rate " << rate;
  EXPECT_EQ(campaign::to_csv(config, done.status.stats),
            campaign::to_csv(config, expect));
  EXPECT_EQ(campaign::to_json(config, done.status.stats),
            campaign::to_json(config, expect));

  pool.join();
  coordinator.stop();
  if (rate == 0) {
    EXPECT_EQ(worker_plane.stats().total(), 0u);
    EXPECT_EQ(client_plane.stats().total(), 0u);
  }
  return coordinator.net_fault_stats().total();
}

TEST(ChaosTest, FaultRateSweepStaysBitIdentical) {
  const campaign::CampaignConfig config = model_config(/*trials=*/640);
  const campaign::CampaignStats in_process = campaign::run_campaign(config);

  // Rate 0 is the control arm: identical machinery, zero injections.
  EXPECT_EQ(run_chaos_campaign(0.0, 3, config, in_process, "r0"), 0u);
  // Light and heavy pressure; the heavy arm sees real fault volume.
  EXPECT_GT(run_chaos_campaign(0.01, 3, config, in_process, "r1"), 0u);
  EXPECT_GT(run_chaos_campaign(0.05, 3, config, in_process, "r5"), 0u);
}

TEST(ChaosTest, CompoundFailureStillConverges) {
  // Everything at once: a faulty wire on every connection, workers that
  // keep dying mid-assignment and being replaced (the supervisor's
  // restart behavior, modelled by respawning short-lived workers), a
  // wedged straggler, and speculation cleaning up after it.
  const campaign::CampaignConfig config = model_config(/*trials=*/640);
  const campaign::CampaignStats in_process = campaign::run_campaign(config);

  campaignd::CoordinatorConfig cc;
  cc.listen_endpoint = unix_endpoint("compound");
  cc.wait_hint_ms = 5;
  cc.assign_chunks = 4;
  cc.worker_timeout_ms = 3'000;
  cc.speculation_min_ms = 300;
  cc.net_faults = support::NetFaultConfig::uniform(0.02);
  cc.net_fault_seed = 0xBAD;
  campaignd::Coordinator coordinator(cc);
  coordinator.start();
  const std::string endpoint = coordinator.endpoint();

  // A straggler that wedges holding chunks. It runs alone until the
  // coordinator has handed it the campaign's first assignment: it then
  // completes one chunk and sits on the rest, which only speculation or
  // reclaim can recover. (Started alongside the others, it could find a
  // healthy worker had already finished the whole campaign.)
  std::atomic<bool> stall_stop{false};
  std::thread straggler([&endpoint, &stall_stop] {
    campaignd::WorkerOptions options;
    options.stall_after_chunks = 1;
    options.reply_timeout_ms = 400;
    options.stop = &stall_stop;
    campaignd::run_worker(endpoint, options);
  });

  // The coordinator's fault plane arms *accepted* connections, so the
  // client shares the chaos and needs its retry budget.
  campaignd::ClientOptions client;
  client.max_retries = 40;
  client.retry_backoff_ms = 5;
  client.retry_backoff_max_ms = 200;
  client.reply_timeout_ms = 400;
  const auto submit = campaignd::submit_campaign(endpoint, config, client);
  const auto first_assign_by =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (submit.ok && coordinator.counters().chunks_assigned == 0 &&
         std::chrono::steady_clock::now() < first_assign_by) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // A crash-looping worker: dies after every 2 chunks, is "respawned".
  // The stop flag also covers the post-campaign idle case — once no work
  // is left, the current incarnation never reaches max_chunks and must
  // be told to wind down.
  std::atomic<bool> crashers_done{false};
  std::thread crash_loop([&endpoint, &crashers_done] {
    while (!crashers_done.load()) {
      campaignd::WorkerOptions options;
      options.connect_attempts = 50;
      options.reply_timeout_ms = 400;
      options.max_chunks = 2;
      options.stop = &crashers_done;
      campaignd::run_worker(endpoint, options);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });
  // And one healthy worker.
  ChaosPool pool(endpoint, nullptr);
  pool.start(1);

  EXPECT_TRUE(submit.ok) << submit.error;
  const auto done = campaignd::wait_campaign(
      endpoint, submit.campaign_id, client, /*interval_ms=*/10,
      /*timeout_ms=*/240'000);
  crashers_done.store(true);
  stall_stop.store(true);
  crash_loop.join();
  straggler.join();
  pool.join();

  ASSERT_TRUE(done.ok) << done.error;
  EXPECT_TRUE(bitwise_equal(done.status.stats, in_process));
  // The storm actually happened: faults hit the wire and chunks came
  // back more than once (crashers redo reclaimed chunks; duplicates are
  // detected, not double-merged).
  EXPECT_GT(coordinator.net_fault_stats().total(), 0u);
  const auto counters = coordinator.counters();
  EXPECT_GT(counters.chunks_reclaimed + counters.duplicate_results +
                counters.speculative_assigns,
            0u);
  coordinator.stop();
}

}  // namespace
