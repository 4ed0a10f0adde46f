// Transport- and handshake-level campaignd tests: endpoint parsing, the
// throughput-aware grain function, authentication rejection (the
// acceptance bar: an unauthenticated TCP peer is turned away before any
// chunk is assigned), the connect and accept paths (fault arming on
// accept, peers that dial before the coordinator binds, giving up on a
// coordinator that never comes), and regression pins for three lifecycle
// bugs — the unreaped handler-thread leak, the EINTR timeout restart in
// wait_readable, and the stop-deaf kWait sleep.
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <pthread.h>

#include <gtest/gtest.h>

#include "campaign/scenarios.hpp"
#include "campaignd/client.hpp"
#include "campaignd/coordinator.hpp"
#include "campaignd/protocol.hpp"
#include "campaignd/worker.hpp"
#include "support/netfault.hpp"
#include "support/socket.hpp"

namespace {

using namespace mavr;
using Clock = std::chrono::steady_clock;

int elapsed_ms(Clock::time_point since) {
  return static_cast<int>(std::chrono::duration_cast<std::chrono::milliseconds>(
                              Clock::now() - since)
                              .count());
}

campaign::CampaignConfig small_config() {
  campaign::CampaignConfig config;
  config.scenario = campaign::Scenario::kBruteForceRerand;
  config.trials = 320;
  config.jobs = 2;
  config.seed = 0xC0FFEE;
  config.n_functions = 5;
  return config;
}

/// AF_UNIX spec unique per test case and process: parallel ctest runs and
/// other build trees must not share a rendezvous path.
std::string unix_spec(const char* tag) {
  return "unix:" + ::testing::TempDir() + "mavr_transport_" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         tag + "_" + std::to_string(::getpid()) + ".sock";
}

// --- endpoint specs ------------------------------------------------------

TEST(EndpointTest, ParsesUnixSpecs) {
  const auto ep = support::parse_endpoint("unix:/tmp/mavr.sock");
  ASSERT_TRUE(ep.has_value());
  EXPECT_EQ(ep->kind, support::Endpoint::Kind::kUnix);
  EXPECT_EQ(ep->path, "/tmp/mavr.sock");
  EXPECT_EQ(support::endpoint_name(*ep), "unix:/tmp/mavr.sock");
}

TEST(EndpointTest, BarePathReadsAsUnix) {
  const auto ep = support::parse_endpoint("/run/mavr/campaignd.sock");
  ASSERT_TRUE(ep.has_value());
  EXPECT_EQ(ep->kind, support::Endpoint::Kind::kUnix);
  EXPECT_EQ(ep->path, "/run/mavr/campaignd.sock");
}

TEST(EndpointTest, ParsesTcpSpecs) {
  const auto ep = support::parse_endpoint("tcp:10.0.0.7:9000");
  ASSERT_TRUE(ep.has_value());
  EXPECT_EQ(ep->kind, support::Endpoint::Kind::kTcp);
  EXPECT_EQ(ep->host, "10.0.0.7");
  EXPECT_EQ(ep->port, 9000);
  EXPECT_EQ(support::endpoint_name(*ep), "tcp:10.0.0.7:9000");
}

TEST(EndpointTest, ParsesBracketedIpv6) {
  const auto ep = support::parse_endpoint("tcp:[::1]:7001");
  ASSERT_TRUE(ep.has_value());
  EXPECT_EQ(ep->kind, support::Endpoint::Kind::kTcp);
  EXPECT_EQ(ep->host, "::1");
  EXPECT_EQ(ep->port, 7001);
  EXPECT_EQ(support::endpoint_name(*ep), "tcp:[::1]:7001");
}

TEST(EndpointTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(support::parse_endpoint("").has_value());
  EXPECT_FALSE(support::parse_endpoint("unix:").has_value());
  EXPECT_FALSE(support::parse_endpoint("tcp:").has_value());
  EXPECT_FALSE(support::parse_endpoint("tcp:nohost").has_value());
  EXPECT_FALSE(support::parse_endpoint("tcp::9000").has_value());
  EXPECT_FALSE(support::parse_endpoint("tcp:host:").has_value());
  EXPECT_FALSE(support::parse_endpoint("tcp:host:70000").has_value());
  EXPECT_FALSE(support::parse_endpoint("tcp:host:9x").has_value());
}

// --- throughput-aware grain ----------------------------------------------

TEST(ScaledAssignChunksTest, UnknownRatesGetFullGrain) {
  EXPECT_EQ(campaignd::scaled_assign_chunks(8, 0.0, 10.0), 8u);
  EXPECT_EQ(campaignd::scaled_assign_chunks(8, 5.0, 0.0), 8u);
  EXPECT_EQ(campaignd::scaled_assign_chunks(8, -1.0, 10.0), 8u);
}

TEST(ScaledAssignChunksTest, FastestConnectionGetsFullGrain) {
  EXPECT_EQ(campaignd::scaled_assign_chunks(8, 10.0, 10.0), 8u);
  EXPECT_EQ(campaignd::scaled_assign_chunks(8, 12.0, 10.0), 8u);
}

TEST(ScaledAssignChunksTest, SlowerConnectionsScaleProportionally) {
  // 25% of the leader's rate with grain 8 → ceil(8 * 0.25) = 2 chunks.
  EXPECT_EQ(campaignd::scaled_assign_chunks(8, 2.5, 10.0), 2u);
  EXPECT_EQ(campaignd::scaled_assign_chunks(8, 5.0, 10.0), 4u);
}

TEST(ScaledAssignChunksTest, NeverBelowOneNeverAboveGrain) {
  EXPECT_EQ(campaignd::scaled_assign_chunks(8, 0.001, 10.0), 1u);
  EXPECT_EQ(campaignd::scaled_assign_chunks(1, 0.001, 10.0), 1u);
  for (double rate = 0.5; rate <= 12.0; rate += 0.5) {
    const std::uint32_t n = campaignd::scaled_assign_chunks(6, rate, 10.0);
    EXPECT_GE(n, 1u);
    EXPECT_LE(n, 6u);
  }
}

// --- handshake / authentication ------------------------------------------
// All over TCP loopback: the transport the handshake exists for.

class HandshakeTest : public ::testing::Test {
 protected:
  campaignd::CoordinatorConfig coordinator_config(const std::string& token) {
    campaignd::CoordinatorConfig config;
    config.listen_endpoint = "tcp:127.0.0.1:0";
    config.auth_token = token;
    config.wait_hint_ms = 5;
    return config;
  }
};

TEST_F(HandshakeTest, WrongTokenClientIsRejected) {
  campaignd::Coordinator coordinator(coordinator_config("sesame"));
  coordinator.start();
  const std::string endpoint = coordinator.endpoint();

  const campaignd::SubmitOutcome bad = campaignd::submit_campaign(
      endpoint, small_config(), {.auth_token = "wrong"});
  EXPECT_FALSE(bad.ok);
  EXPECT_NE(bad.error.find("handshake rejected"), std::string::npos)
      << bad.error;
  EXPECT_NE(bad.error.find("authentication failed"), std::string::npos)
      << bad.error;

  const campaignd::SubmitOutcome none = campaignd::submit_campaign(
      endpoint, small_config(), {.auth_token = ""});
  EXPECT_FALSE(none.ok) << "token-less client must not pass a token gate";

  // Same coordinator, right token: accepted — the gate is the token, not
  // the transport.
  const campaignd::SubmitOutcome good = campaignd::submit_campaign(
      endpoint, small_config(), {.auth_token = "sesame"});
  EXPECT_TRUE(good.ok) << good.error;
  coordinator.stop();
}

TEST_F(HandshakeTest, TokenPresentedToTokenlessCoordinatorIsRejected) {
  campaignd::Coordinator coordinator(coordinator_config(""));
  coordinator.start();
  const campaignd::SubmitOutcome out = campaignd::submit_campaign(
      coordinator.endpoint(), small_config(), {.auth_token = "stray-token"});
  EXPECT_FALSE(out.ok);
  EXPECT_NE(out.error.find("handshake rejected"), std::string::npos)
      << out.error;
  coordinator.stop();
}

TEST_F(HandshakeTest, WrongTokenWorkerIsAssignedNothing) {
  campaignd::Coordinator coordinator(coordinator_config("sesame"));
  coordinator.start();
  const std::string endpoint = coordinator.endpoint();

  const campaign::CampaignConfig config = small_config();
  const campaignd::SubmitOutcome submit =
      campaignd::submit_campaign(endpoint, config, {.auth_token = "sesame"});
  ASSERT_TRUE(submit.ok) << submit.error;

  // The impostor is turned away at the handshake — permanently (no
  // retry), with zero chunks completed...
  campaignd::WorkerOptions impostor;
  impostor.auth_token = "wrong";
  impostor.connect_attempts = 5;
  EXPECT_EQ(campaignd::run_worker(endpoint, impostor), 0u);

  // ...and the campaign is untouched: nothing was assigned, so nothing
  // could have been computed or reclaimed.
  const campaignd::PollOutcome mid =
      campaignd::poll_campaign(endpoint, submit.campaign_id,
                               {.auth_token = "sesame"});
  ASSERT_TRUE(mid.ok) << mid.error;
  EXPECT_EQ(mid.status.chunks_done, 0u);
  EXPECT_EQ(mid.status.state, campaignd::CampaignState::kQueued);

  // A properly authenticated worker then completes it, bit-identical to
  // the in-process engine.
  const campaign::CampaignStats in_process = campaign::run_campaign(config);
  std::atomic<bool> stop{false};
  campaignd::WorkerOptions honest;
  honest.auth_token = "sesame";
  honest.stop = &stop;
  std::thread worker(
      [&] { campaignd::run_worker(endpoint, honest); });
  const campaignd::PollOutcome done = campaignd::wait_campaign(
      endpoint, submit.campaign_id, {.auth_token = "sesame"}, 10, 60'000);
  stop.store(true);
  worker.join();
  coordinator.stop();
  ASSERT_TRUE(done.ok) << done.error;
  EXPECT_EQ(std::memcmp(&done.status.stats, &in_process, sizeof in_process),
            0);
}

TEST_F(HandshakeTest, ProtocolVersionMismatchIsRejected) {
  campaignd::Coordinator coordinator(coordinator_config(""));
  coordinator.start();
  const auto ep = support::parse_endpoint(coordinator.endpoint());
  ASSERT_TRUE(ep.has_value());

  // Speak the framing by hand: a kHello from a future protocol must be
  // answered with kReject naming the version, not a challenge.
  support::Socket sock = support::connect_endpoint(*ep);
  ASSERT_TRUE(sock.valid());
  campaignd::HelloBody hello;
  hello.protocol_version = campaignd::kProtocolVersion + 1;
  hello.peer_nonce = 42;
  ASSERT_TRUE(send_message(sock, campaignd::MsgType::kHello,
                           campaignd::encode_hello(hello)));
  campaignd::Message reply;
  ASSERT_EQ(campaignd::recv_message(sock, &reply, 5'000),
            support::IoStatus::kOk);
  EXPECT_EQ(reply.type, campaignd::MsgType::kReject);
  EXPECT_NE(campaignd::decode_string_body(reply.body).find("version"),
            std::string::npos);
  coordinator.stop();
}

// --- connect and accept paths --------------------------------------------

// The coordinator's plane arms every accepted socket with exactly one
// fault stream. A delay-only plane never breaks a request, so each
// single-attempt client request is one accepted connection.
TEST(ConnectPathTest, CoordinatorArmsEachAcceptedConnectionOnce) {
  for (const std::string& listen :
       {unix_spec(""), std::string("tcp:127.0.0.1:0")}) {
    campaignd::CoordinatorConfig cc;
    cc.listen_endpoint = listen;
    cc.net_faults.delay = 0.5;
    cc.net_fault_seed = 0xDE1A7;
    campaignd::Coordinator coordinator(cc);
    coordinator.start();
    const std::string endpoint = coordinator.endpoint();

    const campaignd::SubmitOutcome submit =
        campaignd::submit_campaign(endpoint, small_config());
    ASSERT_TRUE(submit.ok) << submit.error;
    constexpr std::uint64_t kPolls = 5;
    for (std::uint64_t i = 0; i < kPolls; ++i) {
      const campaignd::PollOutcome poll =
          campaignd::poll_campaign(endpoint, submit.campaign_id);
      ASSERT_TRUE(poll.ok) << poll.error;
    }
    const support::NetFaultStats stats = coordinator.net_fault_stats();
    coordinator.stop();
    EXPECT_EQ(stats.connections, 1 + kPolls) << listen;
    EXPECT_GT(stats.delays, 0u) << listen << ": the plane was not armed";
    EXPECT_EQ(stats.total(), stats.delays) << listen;
  }
}

// A worker may start before its coordinator: its refused connects are
// retried until the coordinator binds, and the campaign it then runs is
// bit-identical to the in-process engine.
TEST(ConnectPathTest, WorkerStartedBeforeTheCoordinatorBindsCompletes) {
  const std::string endpoint = unix_spec("");
  const campaign::CampaignConfig config = small_config();
  const campaign::CampaignStats in_process = campaign::run_campaign(config);

  std::atomic<bool> stop{false};
  campaignd::WorkerOptions options;
  options.stop = &stop;
  std::thread worker([&] { campaignd::run_worker(endpoint, options); });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  campaignd::CoordinatorConfig cc;
  cc.listen_endpoint = endpoint;
  cc.wait_hint_ms = 5;
  campaignd::Coordinator coordinator(cc);
  coordinator.start();
  const campaignd::SubmitOutcome submit =
      campaignd::submit_campaign(endpoint, config);
  ASSERT_TRUE(submit.ok) << submit.error;
  const campaignd::PollOutcome done = campaignd::wait_campaign(
      endpoint, submit.campaign_id, {}, /*interval_ms=*/10,
      /*timeout_ms=*/60'000);
  stop.store(true);
  worker.join();
  coordinator.stop();
  ASSERT_TRUE(done.ok) << done.error;
  EXPECT_EQ(std::memcmp(&done.status.stats, &in_process, sizeof in_process),
            0);
}

// With no coordinator at all, a worker gives up after connect_attempts
// refused connects and reports zero chunks — promptly, on small settings.
TEST(ConnectPathTest, WorkerGivesUpWhenNoCoordinatorListens) {
  campaignd::WorkerOptions options;
  options.connect_attempts = 5;
  options.reconnect_backoff_ms = 5;
  options.reconnect_backoff_max_ms = 20;
  const auto start = Clock::now();
  EXPECT_EQ(campaignd::run_worker(unix_spec(""), options), 0u);
  EXPECT_LT(elapsed_ms(start), 2'000);
}

// A client with a retry budget rides out a coordinator that binds late:
// the refused connects are transient failures, retried on its ladder.
TEST(ConnectPathTest, RetryingClientSubmitsToALateCoordinator) {
  const std::string endpoint = unix_spec("");
  campaignd::CoordinatorConfig cc;
  cc.listen_endpoint = endpoint;
  campaignd::Coordinator coordinator(cc);
  std::thread binder([&coordinator] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    coordinator.start();
  });

  campaignd::ClientOptions client;
  client.max_retries = 20;
  client.retry_backoff_ms = 20;
  client.retry_backoff_max_ms = 200;
  const campaignd::SubmitOutcome submit =
      campaignd::submit_campaign(endpoint, small_config(), client);
  binder.join();
  coordinator.stop();
  EXPECT_TRUE(submit.ok) << submit.error;
}

// --- bugfix regressions --------------------------------------------------

// Bug 1: the coordinator used to push every connection handler into a
// vector joined only at stop() — a long-lived daemon accumulated one
// zombie thread per connection, forever. Pin: handler bookkeeping stays
// bounded across far more sequential connections than the bound.
TEST(HandlerReapTest, SequentialConnectionsAreReaped) {
  campaignd::CoordinatorConfig cc;
  cc.listen_endpoint = "tcp:127.0.0.1:0";
  campaignd::Coordinator coordinator(cc);
  coordinator.start();
  const std::string endpoint = coordinator.endpoint();

  constexpr int kConnections = 120;
  for (int i = 0; i < kConnections; ++i) {
    // Full handshake + request/reply + close per iteration. The unknown-id
    // reject proves the round-trip reached campaign state.
    const campaignd::PollOutcome out =
        campaignd::poll_campaign(endpoint, 999'999);
    ASSERT_FALSE(out.ok);
    ASSERT_NE(out.error.find("unknown"), std::string::npos) << out.error;
  }

  // The last handful of handlers may still be exiting; what must NOT
  // happen is ~120 unjoined threads parked in the table.
  const auto start = Clock::now();
  std::size_t live = coordinator.handler_count();
  while (live > 4 && elapsed_ms(start) < 5'000) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    live = coordinator.handler_count();
  }
  EXPECT_LE(live, 4u) << "handler threads are not being reaped";
  coordinator.stop();
}

// Bug 2: wait_readable restarted poll() with the FULL timeout after every
// EINTR, so a steady signal stream pushed the deadline out forever. Pin:
// a timed read on an idle socket still times out (and in bounded time)
// under a signal storm faster than the timeout.
TEST(WaitReadableTest, TimesOutUnderSignalStorm) {
  struct sigaction sa{};
  sa.sa_handler = [](int) {};  // interrupt syscalls, do nothing else
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // deliberately no SA_RESTART
  struct sigaction old{};
  ASSERT_EQ(sigaction(SIGUSR1, &sa, &old), 0);

  auto [a, b] = support::Socket::make_pair();
  std::atomic<bool> done{false};
  support::IoStatus status = support::IoStatus::kOk;
  std::thread reader([&] {
    std::uint8_t byte = 0;
    status = a.recv_exact(&byte, 1, /*timeout_ms=*/300);  // nothing arrives
    done.store(true);
  });
  const pthread_t reader_handle = reader.native_handle();

  const auto start = Clock::now();
  // Storm at ~50/s: every signal lands well inside the 300ms window, so
  // the buggy restart never reaches its timeout.
  while (!done.load() && elapsed_ms(start) < 5'000) {
    pthread_kill(reader_handle, SIGUSR1);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  reader.join();
  sigaction(SIGUSR1, &old, nullptr);

  EXPECT_EQ(status, support::IoStatus::kTimeout);
  EXPECT_LT(elapsed_ms(start), 2'000)
      << "EINTR must not restart the full timeout";
}

// Bug 3: an idle worker slept the entire kWait hint (up to 500ms) without
// looking at options.stop. Pin: with the coordinator hinting the maximum
// wait, a stop raised mid-sleep ends the worker in ~100ms slices.
TEST(WorkerStopLatencyTest, StopInterruptsWaitSleep) {
  campaignd::CoordinatorConfig cc;
  cc.listen_endpoint = "tcp:127.0.0.1:0";
  cc.wait_hint_ms = 500;  // no campaigns queued: every poll earns a kWait
  campaignd::Coordinator coordinator(cc);
  coordinator.start();

  std::atomic<bool> stop{false};
  std::thread worker([&] {
    campaignd::WorkerOptions options;
    options.stop = &stop;
    campaignd::run_worker(coordinator.endpoint(), options);
  });

  // Let the worker get comfortably into its first kWait sleep.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto raised = Clock::now();
  stop.store(true);
  worker.join();
  const int latency = elapsed_ms(raised);
  coordinator.stop();

  EXPECT_LT(latency, 300) << "worker ignored stop for " << latency << "ms";
}

}  // namespace
