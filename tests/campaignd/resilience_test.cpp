// Robustness suite for the campaign service (DESIGN.md §14): speculative
// straggler recovery, submit idempotency under client retries, client
// resilience over a faulty transport, the graceful drain protocol, and
// checkpoint prefix durability. Every path ends at the same invariant as
// the happy path: stats bit-identical to run_campaign in-process.
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/campaign.hpp"
#include "campaign/scenarios.hpp"
#include "campaign/wire.hpp"
#include "campaignd/checkpoint.hpp"
#include "campaignd/client.hpp"
#include "campaignd/coordinator.hpp"
#include "campaignd/worker.hpp"
#include "support/netfault.hpp"
#include "support/rng.hpp"

namespace {

using namespace mavr;
using Clock = std::chrono::steady_clock;

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

/// Unique rendezvous paths per test case (parallel ctest processes) and
/// per pid (the same test racing itself from another build tree).
std::string temp_path(const char* suffix) {
  std::string tag =
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  for (char& c : tag) {
    if (c == '/') c = '_';
  }
  return ::testing::TempDir() + "mavr_res_" + tag + "_" +
         std::to_string(::getpid()) + suffix;
}

/// Worker thread with explicit options; joins (and raises stop) on
/// destruction.
class Worker {
 public:
  Worker(std::string endpoint, campaignd::WorkerOptions options) {
    options.stop = &stop_;
    thread_ = std::thread([endpoint = std::move(endpoint), options] {
      campaignd::run_worker(endpoint, options);
    });
  }
  ~Worker() { join(); }
  void join() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  /// For workers that exit on their own (shutdown/max_chunks).
  void wait_exit() {
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

TEST(SpeculationTest, RecoversChunksHeldByAStalledWorker) {
  const campaign::CampaignConfig config = model_config(/*trials=*/640);
  const campaign::CampaignStats in_process = campaign::run_campaign(config);

  campaignd::CoordinatorConfig cc;
  cc.listen_endpoint = "unix:" + temp_path(".sock");
  cc.wait_hint_ms = 5;
  cc.assign_chunks = 4;        // the straggler wedges holding part of a range
  cc.worker_timeout_ms = 120'000;  // assignment timeout must NOT be the
                                   // recovery path in this test
  cc.speculation_min_ms = 100;     // impatient deadline floor for tests
  campaignd::Coordinator coordinator(cc);
  coordinator.start();
  const std::string endpoint = coordinator.endpoint();

  const campaignd::SubmitOutcome submit =
      campaignd::submit_campaign(endpoint, config);
  ASSERT_TRUE(submit.ok) << submit.error;

  // The straggler runs *alone* first: it completes 2 chunks then wedges
  // — connection open, making no progress, holding the rest of its
  // 4-chunk assignment in-flight. Only once it is provably wedged (2
  // chunks done, no more coming) does the healthy worker join, so the
  // held chunks cannot be won in a startup race: speculation is the
  // only way to recover them in this configuration.
  campaignd::WorkerOptions stalled;
  stalled.stall_after_chunks = 2;
  Worker straggler(endpoint, stalled);
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  while (Clock::now() < deadline) {
    const auto mid = campaignd::poll_campaign(endpoint, submit.campaign_id);
    ASSERT_TRUE(mid.ok) << mid.error;
    if (mid.status.chunks_done >= 2) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  Worker healthy(endpoint, campaignd::WorkerOptions{});
  const campaignd::PollOutcome done = campaignd::wait_campaign(
      endpoint, submit.campaign_id, {}, /*interval_ms=*/10,
      /*timeout_ms=*/60'000);
  ASSERT_TRUE(done.ok) << done.error;
  EXPECT_EQ(done.status.state, campaignd::CampaignState::kDone);
  EXPECT_TRUE(bitwise_equal(done.status.stats, in_process));

  const campaignd::CoordinatorCounters counters = coordinator.counters();
  EXPECT_GE(counters.speculative_assigns, 1u)
      << "campaign finished without speculating — the straggler model "
         "did not hold chunks in flight";
  straggler.join();
  healthy.join();
  coordinator.stop();
}

TEST(ClientResilienceTest, RetriedSubmitIsIdempotent) {
  campaignd::CoordinatorConfig cc;
  cc.listen_endpoint = "unix:" + temp_path(".sock");
  campaignd::Coordinator coordinator(cc);
  coordinator.start();
  const std::string endpoint = coordinator.endpoint();
  const campaign::CampaignConfig config = model_config(640);

  // A client that lost the ack retries the same submit: it must land on
  // the campaign the lost reply admitted, not fork a duplicate.
  const auto first = campaignd::submit_campaign(endpoint, config);
  const auto retried = campaignd::submit_campaign(endpoint, config);
  ASSERT_TRUE(first.ok && retried.ok);
  EXPECT_EQ(retried.campaign_id, first.campaign_id);
  EXPECT_EQ(coordinator.counters().submits_deduped, 1u);

  // A genuinely different campaign (other seed) is NOT deduplicated,
  // even though only non-canonical bytes... every canonical byte counts.
  campaign::CampaignConfig other = config;
  other.seed = config.seed + 1;
  const auto distinct = campaignd::submit_campaign(endpoint, other);
  ASSERT_TRUE(distinct.ok);
  EXPECT_NE(distinct.campaign_id, first.campaign_id);
  EXPECT_EQ(coordinator.counters().submits_deduped, 1u);

  // jobs is not part of campaign identity (not even transmitted).
  campaign::CampaignConfig rejobbed = config;
  rejobbed.jobs = config.jobs + 3;
  const auto rejobbed_submit = campaignd::submit_campaign(endpoint, rejobbed);
  ASSERT_TRUE(rejobbed_submit.ok);
  EXPECT_EQ(rejobbed_submit.campaign_id, first.campaign_id);
  coordinator.stop();
}

TEST(ClientResilienceTest, WaitRidesOutAFaultyClientTransport) {
  const campaign::CampaignConfig config = model_config(/*trials=*/640);
  const campaign::CampaignStats in_process = campaign::run_campaign(config);

  campaignd::CoordinatorConfig cc;
  cc.listen_endpoint = "unix:" + temp_path(".sock");
  cc.wait_hint_ms = 5;
  campaignd::Coordinator coordinator(cc);
  coordinator.start();
  const std::string endpoint = coordinator.endpoint();
  Worker w1(endpoint, campaignd::WorkerOptions{});
  Worker w2(endpoint, campaignd::WorkerOptions{});

  // Every connection this client opens loses frames, takes delays, and
  // occasionally goes half-open — the pre-resilience client died on the
  // first of these. Retries + the consecutive-failure budget must carry
  // it to the (bit-identical) finish line.
  support::NetFaultPlane plane(support::NetFaultConfig::uniform(0.10),
                               support::Rng(2026));
  campaignd::ClientOptions client;
  client.fault_plane = &plane;
  client.max_retries = 25;
  client.retry_backoff_ms = 5;
  client.retry_backoff_max_ms = 100;
  client.reply_timeout_ms = 300;  // bound what a half-open hang costs

  const auto submit = campaignd::submit_campaign(endpoint, config, client);
  ASSERT_TRUE(submit.ok) << submit.error;
  const auto done = campaignd::wait_campaign(
      endpoint, submit.campaign_id, client, /*interval_ms=*/10,
      /*timeout_ms=*/120'000);
  ASSERT_TRUE(done.ok) << done.error;
  EXPECT_TRUE(bitwise_equal(done.status.stats, in_process));
  // The plane really was hostile, not a vacuous pass.
  EXPECT_GT(plane.stats().total(), 0u);
  w1.join();
  w2.join();
  coordinator.stop();
}

TEST(DrainTest, FinishesInflightRejectsNewWorkAndResumes) {
  const campaign::CampaignConfig config = model_config(/*trials=*/640);
  const campaign::CampaignStats in_process = campaign::run_campaign(config);
  const std::string ckpt = temp_path(".ckpt");
  std::remove(ckpt.c_str());

  campaignd::CoordinatorConfig cc;
  cc.listen_endpoint = "unix:" + temp_path(".sock");
  cc.wait_hint_ms = 5;
  cc.checkpoint_path = ckpt;
  cc.assign_chunks = 2;
  std::uint64_t drained_chunks = 0;

  {
    // First life: drain mid-campaign (the daemon's SIGTERM path).
    campaignd::Coordinator coordinator(cc);
    coordinator.start();
    const std::string endpoint = coordinator.endpoint();
    const auto submit = campaignd::submit_campaign(endpoint, config);
    ASSERT_TRUE(submit.ok) << submit.error;

    // A worker that walks away after exactly 3 chunks pins the
    // mid-campaign state deterministically: with a 2-chunk grain it
    // exits one chunk into its second assignment, so 3 chunks are done
    // and 1 reclaims when its connection drops — the campaign cannot
    // race to completion before the drain below.
    campaignd::WorkerOptions deserter;
    deserter.max_chunks = 3;
    Worker worker(endpoint, deserter);
    worker.wait_exit();

    const auto t0 = Clock::now();
    coordinator.begin_drain();
    EXPECT_TRUE(coordinator.draining());
    // New work is refused while draining...
    campaign::CampaignConfig late = config;
    late.seed = 7;
    const auto refused = campaignd::submit_campaign(endpoint, late);
    EXPECT_FALSE(refused.ok);
    EXPECT_NE(refused.error.find("drain"), std::string::npos)
        << refused.error;
    // ...and the drain completes promptly (in-flight work either landed
    // already or reclaimed when the deserter's connection dropped).
    EXPECT_TRUE(coordinator.drain(/*timeout_ms=*/10'000));
    const auto stop_latency = Clock::now() - t0;
    EXPECT_LT(stop_latency, std::chrono::seconds(10));

    const auto after = campaignd::poll_campaign(endpoint, submit.campaign_id);
    ASSERT_TRUE(after.ok) << after.error;
    drained_chunks = after.status.chunks_done;
    EXPECT_EQ(drained_chunks, 3u);  // genuinely mid-campaign, pinned
    coordinator.stop();
  }

  {
    // Second life: every chunk accepted before the drain was fsynced;
    // resubmitting resumes past all of them, and the finished campaign
    // is bit-identical.
    campaignd::Coordinator coordinator(cc);
    coordinator.start();
    const std::string endpoint = coordinator.endpoint();
    const auto submit = campaignd::submit_campaign(endpoint, config);
    ASSERT_TRUE(submit.ok) << submit.error;
    const auto resumed = campaignd::poll_campaign(endpoint,
                                                  submit.campaign_id);
    ASSERT_TRUE(resumed.ok) << resumed.error;
    EXPECT_EQ(resumed.status.chunks_done, drained_chunks);

    Worker worker(endpoint, campaignd::WorkerOptions{});
    const auto done = campaignd::wait_campaign(
        endpoint, submit.campaign_id, {}, /*interval_ms=*/10,
        /*timeout_ms=*/60'000);
    ASSERT_TRUE(done.ok) << done.error;
    EXPECT_TRUE(bitwise_equal(done.status.stats, in_process));
    worker.join();
    coordinator.stop();
  }
  std::remove(ckpt.c_str());
}

TEST(CheckpointTest, EveryLogPrefixLoadsOnlyWholeRecords) {
  // Crash simulation without crashing: a coordinator killed mid-append
  // leaves some byte prefix of the log. Replay *every* prefix and require
  // that load() yields exactly the whole records that fit — bitwise equal
  // to the originals, in order, with the torn tail ignored.
  const campaign::CampaignConfig config = model_config(/*trials=*/512);
  const std::uint64_t n_chunks = campaign::num_chunks(config.trials);
  ASSERT_EQ(n_chunks, 8u);
  const std::uint64_t fp = campaign::wire::config_fingerprint(config);
  const campaign::TrialFn fn = campaign::make_trial_fn(config, nullptr);
  const std::vector<campaign::ChunkResult> chunks =
      campaign::run_chunk_range(config, fn, 0, n_chunks);
  ASSERT_EQ(chunks.size(), n_chunks);

  const std::string full_path = temp_path(".ckpt");
  const std::string cut_path = temp_path(".cut");
  std::remove(full_path.c_str());
  {
    campaignd::CheckpointStore store(full_path);
    for (const campaign::ChunkResult& c : chunks) store.append(fp, c);
    store.sync();
  }
  std::ifstream in(full_path, std::ios::binary);
  ASSERT_TRUE(in.good());
  const std::vector<char> log((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
  ASSERT_GT(log.size(), 0u);

  std::size_t prev_loaded = 0;
  for (std::size_t cut = 0; cut <= log.size(); ++cut) {
    {
      std::ofstream out(cut_path, std::ios::binary | std::ios::trunc);
      out.write(log.data(), static_cast<std::streamsize>(cut));
    }
    const campaignd::CheckpointStore store(cut_path);
    const std::vector<campaign::ChunkResult> loaded =
        store.load(fp, n_chunks);
    // Monotone: longer prefixes never lose records...
    ASSERT_GE(loaded.size(), prev_loaded) << "cut at byte " << cut;
    // ...and never gain more than one whole record per boundary crossed.
    ASSERT_LE(loaded.size(), chunks.size());
    for (std::size_t i = 0; i < loaded.size(); ++i) {
      ASSERT_EQ(loaded[i].index, chunks[i].index);
      ASSERT_EQ(0, std::memcmp(&loaded[i].accum, &chunks[i].accum,
                               sizeof chunks[i].accum))
          << "cut at byte " << cut << ", record " << i;
      ASSERT_EQ(loaded[i].attempts, chunks[i].attempts);
    }
    prev_loaded = loaded.size();
  }
  EXPECT_EQ(prev_loaded, chunks.size());  // the full log loads everything
  std::remove(full_path.c_str());
  std::remove(cut_path.c_str());
}

}  // namespace
