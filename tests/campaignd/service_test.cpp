// End-to-end campaignd service tests, all built on the acceptance
// invariant: campaign stats computed by the service — any worker count,
// any transport, workers dying mid-assignment, even a kill-and-resume
// across coordinator instances — are bit-identical to `run_campaign`
// in-process, and so are the CSV/JSON exports.
//
// The whole matrix runs twice, parameterized over the transport: AF_UNIX
// and TCP loopback (ephemeral port, so parallel ctest runs cannot
// collide). Workers run as in-process threads speaking the real framed
// protocol (sanitizer-friendly: no fork). Worker *death* is modelled by
// WorkerOptions::max_chunks — the worker walks away mid-assignment and
// its connection closes, which is exactly what the coordinator sees when
// a worker process is kill -9'd.
#include <atomic>
#include <cstdio>
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

namespace {

using namespace mavr;

campaign::CampaignConfig model_config(std::uint64_t trials) {
  campaign::CampaignConfig config;
  config.scenario = campaign::Scenario::kBruteForceRerand;
  config.trials = trials;
  config.jobs = 4;  // in-process baseline parallelism; not transmitted
  config.seed = 0xC0FFEE;
  config.n_functions = 5;
  return config;
}

bool bitwise_equal(const campaign::CampaignStats& a,
                   const campaign::CampaignStats& b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Worker threads with a shared cooperative stop flag.
class WorkerPool {
 public:
  explicit WorkerPool(std::string endpoint)
      : endpoint_(std::move(endpoint)) {}
  ~WorkerPool() { join(); }

  void start(int n, std::uint64_t max_chunks = 0) {
    for (int i = 0; i < n; ++i) {
      threads_.emplace_back([this, max_chunks] {
        campaignd::WorkerOptions options;
        options.connect_attempts = 20;
        options.max_chunks = max_chunks;
        options.stop = &stop_;
        campaignd::run_worker(endpoint_, options);
      });
    }
  }

  /// Waits for workers that exit on their own (max_chunks reached)
  /// without raising the stop flag.
  void wait_exit() {
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
    threads_.clear();
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
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

enum class Transport { kUnix, kTcp };

class ServiceTest : public ::testing::TestWithParam<Transport> {
 protected:
  std::string sock_path_;
  std::string ckpt_path_;

  void SetUp() override {
    // ctest runs every case as its own process, concurrently — the
    // rendezvous paths must be unique per case or parallel runs collide.
    std::string tag =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    for (char& c : tag) {
      if (c == '/') c = '_';
    }
    sock_path_ = ::testing::TempDir() + "mavr_svc_" + tag + ".sock";
    ckpt_path_ = ::testing::TempDir() + "mavr_svc_" + tag + ".ckpt";
    std::remove(sock_path_.c_str());
    std::remove(ckpt_path_.c_str());
  }
  void TearDown() override {
    std::remove(sock_path_.c_str());
    std::remove(ckpt_path_.c_str());
  }

  /// The spec the coordinator binds. TCP uses port 0: the kernel picks a
  /// free port and coordinator.endpoint() reports it.
  std::string listen_spec() const {
    return GetParam() == Transport::kUnix ? "unix:" + sock_path_
                                          : "tcp:127.0.0.1:0";
  }

  campaignd::CoordinatorConfig coordinator_config() {
    campaignd::CoordinatorConfig config;
    config.listen_endpoint = listen_spec();
    config.wait_hint_ms = 5;  // idle workers re-poll fast in tests
    return config;
  }

  /// Submits, waits for completion, and returns the final stats.
  campaign::CampaignStats run_via_service(
      const std::string& endpoint, const campaign::CampaignConfig& config) {
    const campaignd::SubmitOutcome submit =
        campaignd::submit_campaign(endpoint, config);
    EXPECT_TRUE(submit.ok) << submit.error;
    const campaignd::PollOutcome done = campaignd::wait_campaign(
        endpoint, submit.campaign_id, {}, /*interval_ms=*/10,
        /*timeout_ms=*/60'000);
    EXPECT_TRUE(done.ok) << done.error;
    EXPECT_EQ(done.status.state, campaignd::CampaignState::kDone);
    EXPECT_EQ(done.status.chunks_done, done.status.chunks_total);
    return done.status.stats;
  }
};

TEST_P(ServiceTest, MatchesInProcessBitExactAtAnyWorkerCount) {
  const campaign::CampaignConfig config = model_config(/*trials=*/1000);
  const campaign::CampaignStats in_process = campaign::run_campaign(config);

  for (int workers : {1, 4}) {
    campaignd::Coordinator coordinator(coordinator_config());
    coordinator.start();
    const std::string endpoint = coordinator.endpoint();
    WorkerPool pool(endpoint);
    pool.start(workers);
    const campaign::CampaignStats via_service =
        run_via_service(endpoint, config);
    pool.join();
    coordinator.stop();

    EXPECT_TRUE(bitwise_equal(via_service, in_process))
        << "stats diverged with " << workers << " workers";
    // The determinism contract extends to the exporters byte-for-byte.
    EXPECT_EQ(campaign::to_csv(config, via_service),
              campaign::to_csv(config, in_process));
    EXPECT_EQ(campaign::to_json(config, via_service),
              campaign::to_json(config, in_process));
  }
}

TEST_P(ServiceTest, WorkerDeathMidAssignmentIsReassigned) {
  const campaign::CampaignConfig config = model_config(/*trials=*/640);
  const campaign::CampaignStats in_process = campaign::run_campaign(config);

  campaignd::CoordinatorConfig cc = coordinator_config();
  cc.assign_chunks = 4;      // deserter dies holding part of an assignment
  cc.worker_timeout_ms = 2'000;
  campaignd::Coordinator coordinator(cc);
  coordinator.start();
  const std::string endpoint = coordinator.endpoint();

  // The deserter completes 3 of its 4 assigned chunks, then its
  // connection drops; the survivor must pick up the abandoned chunk.
  WorkerPool deserter(endpoint);
  deserter.start(1, /*max_chunks=*/3);
  WorkerPool survivor(endpoint);
  survivor.start(1);

  const campaign::CampaignStats via_service =
      run_via_service(endpoint, config);
  deserter.join();
  survivor.join();
  coordinator.stop();

  EXPECT_TRUE(bitwise_equal(via_service, in_process));
}

TEST_P(ServiceTest, KillAndResumeProducesIdenticalResults) {
  const campaign::CampaignConfig config = model_config(/*trials=*/640);
  const std::uint64_t n_chunks = campaign::num_chunks(config.trials);
  ASSERT_EQ(n_chunks, 10u);
  const campaign::CampaignStats in_process = campaign::run_campaign(config);

  campaignd::CoordinatorConfig cc = coordinator_config();
  cc.checkpoint_path = ckpt_path_;
  cc.assign_chunks = 1;  // one chunk per round-trip: exactly 5 checkpointed
  std::uint64_t campaign_id = 0;

  {
    // First life: the lone worker dies after 5 chunks, then the
    // coordinator itself is torn down mid-campaign.
    campaignd::Coordinator coordinator(cc);
    coordinator.start();
    const std::string endpoint = coordinator.endpoint();
    const campaignd::SubmitOutcome submit =
        campaignd::submit_campaign(endpoint, config);
    ASSERT_TRUE(submit.ok) << submit.error;
    campaign_id = submit.campaign_id;

    WorkerPool pool(endpoint);
    pool.start(1, /*max_chunks=*/5);
    pool.wait_exit();  // returns on its own after exactly 5 acked chunks

    const campaignd::PollOutcome mid =
        campaignd::poll_campaign(endpoint, campaign_id);
    ASSERT_TRUE(mid.ok) << mid.error;
    EXPECT_EQ(mid.status.state, campaignd::CampaignState::kRunning);
    EXPECT_EQ(mid.status.chunks_done, 5u);
    EXPECT_EQ(mid.status.trials_done, 5u * campaign::kChunkTrials);
    // The incremental aggregate covers exactly the completed trials.
    EXPECT_EQ(mid.status.stats.trials, 5u * campaign::kChunkTrials);
    coordinator.stop();
  }

  {
    // Second life: a fresh coordinator on the same checkpoint store (over
    // TCP it comes up on a *new* ephemeral port — resume does not depend
    // on the address surviving). Resubmitting the same config must
    // resume — 5 chunks done *before* any worker exists.
    campaignd::Coordinator coordinator(cc);
    coordinator.start();
    const std::string endpoint = coordinator.endpoint();
    const campaignd::SubmitOutcome submit =
        campaignd::submit_campaign(endpoint, config);
    ASSERT_TRUE(submit.ok) << submit.error;

    const campaignd::PollOutcome resumed =
        campaignd::poll_campaign(endpoint, submit.campaign_id);
    ASSERT_TRUE(resumed.ok) << resumed.error;
    EXPECT_EQ(resumed.status.chunks_done, 5u);

    WorkerPool pool(endpoint);
    pool.start(1);
    const campaignd::PollOutcome done = campaignd::wait_campaign(
        endpoint, submit.campaign_id, {}, 10, 60'000);
    pool.join();
    coordinator.stop();

    ASSERT_TRUE(done.ok) << done.error;
    EXPECT_TRUE(bitwise_equal(done.status.stats, in_process));
    EXPECT_EQ(campaign::to_csv(config, done.status.stats),
              campaign::to_csv(config, in_process));
    EXPECT_EQ(campaign::to_json(config, done.status.stats),
              campaign::to_json(config, in_process));
  }
}

TEST_P(ServiceTest, FifoSchedulingAndBackpressure) {
  campaignd::CoordinatorConfig cc = coordinator_config();
  cc.max_queue = 2;
  campaignd::Coordinator coordinator(cc);
  coordinator.start();
  const std::string endpoint = coordinator.endpoint();

  campaign::CampaignConfig c1 = model_config(/*trials=*/320);
  campaign::CampaignConfig c2 = model_config(/*trials=*/320);
  c2.seed = 0xBEEF;  // distinct fingerprint
  campaign::CampaignConfig c3 = model_config(/*trials=*/320);
  c3.seed = 0xF00D;

  const campaignd::SubmitOutcome s1 = campaignd::submit_campaign(endpoint, c1);
  const campaignd::SubmitOutcome s2 = campaignd::submit_campaign(endpoint, c2);
  ASSERT_TRUE(s1.ok) << s1.error;
  ASSERT_TRUE(s2.ok) << s2.error;

  // Backpressure: two incomplete campaigns fill the queue.
  const campaignd::SubmitOutcome s3 = campaignd::submit_campaign(endpoint, c3);
  EXPECT_FALSE(s3.ok);
  EXPECT_NE(s3.error.find("queue full"), std::string::npos) << s3.error;

  // Queue position reflects admission order while both are incomplete.
  const campaignd::PollOutcome p2 =
      campaignd::poll_campaign(endpoint, s2.campaign_id);
  ASSERT_TRUE(p2.ok) << p2.error;
  EXPECT_EQ(p2.status.queue_position, 1u);

  // One worker drains the queue in FIFO order: when the *younger*
  // campaign reports done, the older one must already be done.
  WorkerPool pool(endpoint);
  pool.start(1);
  const campaignd::PollOutcome done2 =
      campaignd::wait_campaign(endpoint, s2.campaign_id, {}, 10, 60'000);
  ASSERT_TRUE(done2.ok) << done2.error;
  const campaignd::PollOutcome done1 =
      campaignd::poll_campaign(endpoint, s1.campaign_id);
  ASSERT_TRUE(done1.ok) << done1.error;
  EXPECT_EQ(done1.status.state, campaignd::CampaignState::kDone);

  // With the queue drained there is room again.
  const campaignd::SubmitOutcome s4 = campaignd::submit_campaign(endpoint, c3);
  EXPECT_TRUE(s4.ok) << s4.error;
  pool.join();
  coordinator.stop();
}

TEST_P(ServiceTest, RejectsBadSubmitsAndUnknownPolls) {
  campaignd::Coordinator coordinator(coordinator_config());
  coordinator.start();
  const std::string endpoint = coordinator.endpoint();

  campaign::CampaignConfig zero = model_config(1);
  zero.trials = 0;
  const campaignd::SubmitOutcome s = campaignd::submit_campaign(endpoint, zero);
  EXPECT_FALSE(s.ok);
  EXPECT_NE(s.error.find("trials"), std::string::npos) << s.error;

  const campaignd::PollOutcome p = campaignd::poll_campaign(endpoint, 424242);
  EXPECT_FALSE(p.ok);
  EXPECT_NE(p.error.find("unknown"), std::string::npos) << p.error;
  coordinator.stop();
}

TEST_P(ServiceTest, HeterogeneousWorkerSpeedsStayBitIdentical) {
  // A deliberately skewed pool: one worker that dies and reconnects
  // repeatedly (max_chunks=1 per life would end the pool thread, so use
  // 2) alongside a healthy one, with the throughput-aware grain active.
  // However the scheduler splits the batches, the merge must not notice.
  const campaign::CampaignConfig config = model_config(/*trials=*/1000);
  const campaign::CampaignStats in_process = campaign::run_campaign(config);

  campaignd::CoordinatorConfig cc = coordinator_config();
  cc.assign_chunks = 8;
  campaignd::Coordinator coordinator(cc);
  coordinator.start();
  const std::string endpoint = coordinator.endpoint();

  WorkerPool flaky(endpoint);
  flaky.start(1, /*max_chunks=*/2);
  WorkerPool steady(endpoint);
  steady.start(2);

  const campaign::CampaignStats via_service =
      run_via_service(endpoint, config);
  flaky.join();
  steady.join();
  coordinator.stop();

  EXPECT_TRUE(bitwise_equal(via_service, in_process));
}

INSTANTIATE_TEST_SUITE_P(Transports, ServiceTest,
                         ::testing::Values(Transport::kUnix, Transport::kTcp),
                         [](const auto& info) {
                           return info.param == Transport::kUnix ? "Unix"
                                                                 : "Tcp";
                         });

}  // namespace
