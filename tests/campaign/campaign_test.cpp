// Campaign engine: determinism across worker counts, aggregation
// correctness against the §V-D analytic models, scenario behavior, and
// result export.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <thread>
#include <vector>

#include "campaign/export.hpp"
#include "campaign/scenarios.hpp"
#include "defense/bruteforce.hpp"
#include "support/error.hpp"

namespace mavr {
namespace {

using campaign::CampaignConfig;
using campaign::CampaignStats;
using campaign::Scenario;

bool bitwise_equal(const CampaignStats& a, const CampaignStats& b) {
  // Doubles compared as bits: the engine's contract is bit-identity, and
  // memcmp also distinguishes -0.0/0.0 and would catch NaN laundering.
  return std::memcmp(&a, &b, sizeof a) == 0;
}

CampaignStats run_bruteforce(Scenario scenario, unsigned jobs,
                             std::uint64_t trials = 10'000,
                             std::uint64_t seed = 0xC0FFEE) {
  CampaignConfig config;
  config.scenario = scenario;
  config.trials = trials;
  config.jobs = jobs;
  config.seed = seed;
  config.n_functions = 5;
  return campaign::run_campaign(config);
}

TEST(CampaignEngine, BitIdenticalAcrossWorkerCounts) {
  const CampaignStats one = run_bruteforce(Scenario::kBruteForceFixed, 1);
  for (unsigned jobs : {2u, 3u, 8u}) {
    const CampaignStats many =
        run_bruteforce(Scenario::kBruteForceFixed, jobs);
    EXPECT_TRUE(bitwise_equal(one, many)) << "jobs=" << jobs;
  }
  const CampaignStats geo1 = run_bruteforce(Scenario::kBruteForceRerand, 1);
  const CampaignStats geo8 = run_bruteforce(Scenario::kBruteForceRerand, 8);
  EXPECT_TRUE(bitwise_equal(geo1, geo8));
}

TEST(CampaignEngine, ExportedFilesAreJobsIndependent) {
  CampaignConfig config;
  config.scenario = Scenario::kBruteForceRerand;
  config.trials = 2'000;
  config.n_functions = 4;
  config.jobs = 1;
  const CampaignStats one = campaign::run_campaign(config);
  const std::string csv1 = campaign::to_csv(config, one);
  const std::string json1 = campaign::to_json(config, one);
  config.jobs = 8;
  const CampaignStats many = campaign::run_campaign(config);
  EXPECT_EQ(csv1, campaign::to_csv(config, many));
  EXPECT_EQ(json1, campaign::to_json(config, many));
  // Self-describing formats: header + the scenario name.
  EXPECT_NE(csv1.find("mean_attempts"), std::string::npos);
  EXPECT_NE(json1.find("\"scenario\": \"bruteforce-rerand\""),
            std::string::npos);
}

TEST(CampaignEngine, FixedModelMatchesAnalyticWithinOnePercent) {
  // Acceptance bar: mean attempts within 1% of (N+1)/2 at 10k trials.
  const CampaignStats stats =
      run_bruteforce(Scenario::kBruteForceFixed, 8);
  const double expected =
      defense::expected_attempts_fixed(defense::permutation_count(5));
  EXPECT_NEAR(stats.mean_attempts, expected, expected * 0.01);
  EXPECT_EQ(stats.successes, stats.trials);
  // Uniform on [1, N]: the quantiles sit near qN and never exceed N.
  EXPECT_LE(stats.max_attempts, 120.0);
  EXPECT_NEAR(stats.p50_attempts, 60.0, 6.0);
  EXPECT_NEAR(stats.p99_attempts, 119.0, 4.0);
}

TEST(CampaignEngine, RerandModelMatchesAnalytic) {
  const CampaignStats stats =
      run_bruteforce(Scenario::kBruteForceRerand, 4);
  const double expected = defense::expected_attempts_rerandomized(
      defense::permutation_count(5));
  EXPECT_NEAR(stats.mean_attempts, expected, expected * 0.05);
  // Geometric: unbounded worst case, heavier tail than the fixed model.
  EXPECT_GT(stats.max_attempts, 120.0);
  EXPECT_LE(stats.p50_attempts, stats.p90_attempts);
  EXPECT_LE(stats.p90_attempts, stats.p99_attempts);
  EXPECT_LE(stats.p99_attempts, stats.max_attempts);
}

TEST(CampaignEngine, ZeroTrialsAndBadJobsRejected) {
  CampaignConfig config;
  config.trials = 0;
  const CampaignStats empty = campaign::run_campaign(config);
  EXPECT_EQ(empty.trials, 0u);
  EXPECT_EQ(empty.mean_attempts, 0.0);
  config.trials = 10;
  config.jobs = 0;
  EXPECT_THROW(campaign::run_campaign(config), support::PreconditionError);
  config.jobs = 257;
  EXPECT_THROW(campaign::run_campaign(config), support::PreconditionError);
}

TEST(CampaignEngine, WorkerExceptionsPropagate) {
  CampaignConfig config;
  config.trials = 200;
  config.jobs = 4;
  EXPECT_THROW(
      campaign::run_trials(config,
                           [](std::uint64_t t, support::Rng&)
                               -> campaign::TrialResult {
                             if (t == 137) {
                               throw support::PreconditionError("trial 137");
                             }
                             return {};
                           }),
      support::PreconditionError);
}

TEST(CampaignEngine, ScenarioNamesRoundTrip) {
  for (Scenario s : {Scenario::kV1, Scenario::kV2, Scenario::kV3,
                     Scenario::kBruteForceFixed,
                     Scenario::kBruteForceRerand}) {
    const auto parsed = campaign::parse_scenario(campaign::scenario_name(s));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, s);
  }
  EXPECT_FALSE(campaign::parse_scenario("v4").has_value());
}

TEST(CampaignEngine, ChunkRangeMergeMatchesRunTrials) {
  CampaignConfig config;
  config.scenario = Scenario::kBruteForceRerand;
  config.trials = 500;  // 8 chunks, last one partial (500 - 7*64 = 52)
  config.jobs = 3;
  config.seed = 0xFEED;
  const auto fn = campaign::make_trial_fn(config, nullptr);
  const CampaignStats direct = campaign::run_trials(config, fn);

  const std::uint64_t n_chunks = campaign::num_chunks(config.trials);
  ASSERT_EQ(n_chunks, 8u);
  // Compute the same campaign as two disjoint chunk ranges — the unit
  // campaignd ships to different worker processes — and merge.
  std::vector<campaign::ChunkResult> chunks =
      campaign::run_chunk_range(config, fn, 0, 3);
  std::vector<campaign::ChunkResult> tail =
      campaign::run_chunk_range(config, fn, 3, n_chunks);
  EXPECT_EQ(chunks.size(), 3u);
  EXPECT_EQ(tail.size(), 5u);
  EXPECT_EQ(tail.back().attempts.size(), 52u);
  // A partial prefix merge covers exactly its trials.
  EXPECT_EQ(campaign::merge_chunk_results(chunks).trials, 3 * 64u);
  chunks.insert(chunks.end(), std::make_move_iterator(tail.begin()),
                std::make_move_iterator(tail.end()));
  const CampaignStats merged = campaign::merge_chunk_results(chunks);
  EXPECT_TRUE(bitwise_equal(direct, merged));

  // Out-of-order / overlapping chunk sets are a caller bug.
  std::swap(chunks[0], chunks[1]);
  EXPECT_THROW(campaign::merge_chunk_results(chunks),
               support::PreconditionError);
}

TEST(CampaignEngine, AbortAfterFailureIsPrompt) {
  // Regression: the worker loop used to notice the abort flag only
  // between 64-trial chunks, so one failing trial made every worker
  // finish its whole chunk (and the pool burn ~jobs*64 doomed trials)
  // before the rethrow. The abort check is per-trial now; after trial 0
  // throws, each worker may at most finish the single trial it is in.
  std::atomic<std::uint64_t> executed{0};
  CampaignConfig config;
  config.trials = 2048;
  config.jobs = 8;
  EXPECT_THROW(
      campaign::run_trials(
          config,
          [&executed](std::uint64_t t, support::Rng&)
              -> campaign::TrialResult {
            executed.fetch_add(1, std::memory_order_relaxed);
            if (t == 0) throw support::InvariantError("trial 0 failed");
            // Doomed trials sleep rather than spin: they cost wall time
            // (running a full chunk of them would dominate the count)
            // while yielding the core, so the throwing trial gets
            // scheduled promptly even on a single-CPU machine.
            std::this_thread::sleep_for(std::chrono::microseconds(500));
            return {};
          }),
      support::InvariantError);
  // Pre-fix this sat around jobs*64 = 512 at minimum; per-trial abort
  // keeps it near jobs (one in-flight trial per worker, plus scheduling
  // slack).
  EXPECT_LT(executed.load(), 256u);
}

TEST(CampaignExport, FormatExactNeverTruncates) {
  // Regression: format_row used to snprintf into a fixed char[1280] and
  // ignore the return value, silently truncating long rows. format_exact
  // sizes the output to the formatted width, whatever it is.
  const std::string wide(5000, 'x');
  const std::string out = campaign::format_exact("<%s>", wide.c_str());
  EXPECT_EQ(out.size(), wide.size() + 2);
  EXPECT_EQ(out.front(), '<');
  EXPECT_EQ(out.back(), '>');
}

TEST(CampaignExport, MaximalWidthRowSurvivesExport) {
  // Every numeric field at its widest printf rendering: u64 max (20
  // digits) and the widest %.17g doubles (denormal min, 23 chars).
  CampaignConfig config;
  config.scenario = Scenario::kDetectSweep;
  config.trials = UINT64_MAX;
  config.seed = UINT64_MAX;
  config.n_functions = UINT32_MAX;
  config.fault_rate = std::numeric_limits<double>::denorm_min();
  CampaignStats stats;
  stats.trials = UINT64_MAX;
  stats.successes = UINT64_MAX;
  stats.detections = UINT64_MAX;
  stats.degradations = UINT64_MAX;
  stats.mean_attempts = -std::numeric_limits<double>::denorm_min();
  stats.max_attempts = std::numeric_limits<double>::denorm_min();
  stats.p50_attempts = -2.2250738585072014e-308;
  stats.p90_attempts = 1.7976931348623157e308;
  stats.p99_attempts = -1.7976931348623157e308;
  stats.mean_cycles = std::numeric_limits<double>::denorm_min();
  stats.total_cycles = UINT64_MAX;
  stats.mean_startup_ms = std::numeric_limits<double>::denorm_min();
  stats.detector_trips = UINT64_MAX;
  stats.mean_ttd_cycles = std::numeric_limits<double>::denorm_min();

  const std::string csv = campaign::csv_row(config, stats);
  const std::string json = campaign::to_json(config, stats);
  // Nothing got cut: the rows are complete and the widest field made it
  // through at full precision.
  EXPECT_EQ(csv.back(), '\n');
  EXPECT_EQ(json.back(), '\n');
  EXPECT_NE(csv.find("4.9406564584124654e-324"), std::string::npos);
  EXPECT_NE(json.find("\"mean_ttd_cycles\": 4.9406564584124654e-324}"),
            std::string::npos);
  const std::string u64max = "18446744073709551615";
  EXPECT_NE(csv.find(u64max + ","), std::string::npos);
}

// Board campaign: a fleet of independently randomized boards under the V2
// stealthy attack. No stale stock-derived payload may land its write, most
// boards go quiet and are caught by the feed-line watchdog (a wild return
// can get lucky and land back in live code, so "all detected" would be too
// strong), and the aggregate must be identical when the fleet runs on 1
// worker vs. several.
TEST(CampaignBoards, V2FleetIsDetectedAndDeterministic) {
  const campaign::SimFixture fixture =
      campaign::make_sim_fixture(firmware::testapp(/*vulnerable=*/true));
  CampaignConfig config;
  config.scenario = Scenario::kV2;
  config.trials = 4;
  config.seed = 7;
  config.jobs = 1;
  const CampaignStats one = campaign::run_campaign(config, fixture);
  config.jobs = 4;
  const CampaignStats four = campaign::run_campaign(config, fixture);
  EXPECT_TRUE(bitwise_equal(one, four));
  EXPECT_EQ(one.successes, 0u);
  EXPECT_GE(one.detections, one.trials / 2);
  EXPECT_GT(one.total_cycles, 0u);
}

// A detect sweep with randomization off restores one warm start that
// make_trial_fn builds and every worker reads. Four chunks keep four
// workers restoring it at once (the MAVR_TSAN build runs this test), and
// the aggregate must match the single-worker run.
TEST(CampaignBoards, SweepWorkersShareOneWarmStart) {
  const campaign::SimFixture fixture =
      campaign::make_sim_fixture(firmware::testapp(/*vulnerable=*/true));
  CampaignConfig config;
  config.scenario = Scenario::kDetectSweep;
  config.detect_attack = campaign::DetectAttack::kV2;
  config.trials = 4 * campaign::kChunkTrials;
  config.seed = 7;
  config.jobs = 1;
  const CampaignStats one = campaign::run_campaign(config, fixture);
  config.jobs = 4;
  const CampaignStats four = campaign::run_campaign(config, fixture);
  EXPECT_TRUE(bitwise_equal(one, four));
  EXPECT_EQ(one.detections, one.trials);
}

}  // namespace
}  // namespace mavr
