// Fault-sweep campaign scenario: the determinism contract (bit-identical
// stats and exports at any jobs count) extended to faulted trials, plus
// the rate extremes — 0 always recovers fresh, 1 always degrades but
// never releases a torn image.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "campaign/export.hpp"
#include "campaign/scenarios.hpp"

namespace mavr {
namespace {

using campaign::CampaignConfig;
using campaign::CampaignStats;
using campaign::Scenario;

const campaign::SimFixture& fixture() {
  static const campaign::SimFixture fx =
      campaign::make_sim_fixture(firmware::testapp(/*vulnerable=*/true));
  return fx;
}

CampaignConfig base_config(double rate, unsigned jobs, std::uint64_t trials) {
  CampaignConfig config;
  config.scenario = Scenario::kFaultSweep;
  config.trials = trials;
  config.jobs = jobs;
  config.seed = 0xFA;
  config.fault_rate = rate;
  config.slice_cycles = 50'000;
  return config;
}

TEST(FaultSweep, BitIdenticalStatsAndExportsAcrossJobs) {
  // 96 trials span two chunks, so the jobs=8 run genuinely interleaves
  // workers; the fault schedules must still replay bit-exactly.
  const CampaignConfig c1 = base_config(0.05, 1, 96);
  const CampaignStats one = campaign::run_campaign(c1, fixture());
  CampaignConfig c8 = c1;
  c8.jobs = 8;
  const CampaignStats eight = campaign::run_campaign(c8, fixture());
  EXPECT_EQ(std::memcmp(&one, &eight, sizeof one), 0);
  EXPECT_EQ(campaign::to_csv(c1, one), campaign::to_csv(c8, eight));
  EXPECT_EQ(campaign::to_json(c1, one), campaign::to_json(c8, eight));
}

TEST(FaultSweep, ZeroRateAlwaysRecoversFresh) {
  const CampaignStats stats =
      campaign::run_campaign(base_config(0.0, 4, 16), fixture());
  EXPECT_EQ(stats.successes, stats.trials);
  EXPECT_EQ(stats.degradations, 0u);
  EXPECT_EQ(stats.mean_attempts, 1.0);  // no retries without faults
  EXPECT_GT(stats.mean_startup_ms, 0.0);
}

TEST(FaultSweep, SaturatedRateAlwaysDegradesNeverTears) {
  // Every page transfer fails at rate 1, so no trial can place a fresh
  // image — but every trial must still end in a verified state (degraded),
  // which the fault sweep's trial enforces by running the released image.
  const CampaignStats stats =
      campaign::run_campaign(base_config(1.0, 4, 16), fixture());
  EXPECT_EQ(stats.degradations, stats.trials);
  EXPECT_EQ(stats.successes, 0u);
}

TEST(FaultSweep, ScenarioNameRoundTrips) {
  EXPECT_STREQ(campaign::scenario_name(Scenario::kFaultSweep), "fault-sweep");
  EXPECT_EQ(campaign::parse_scenario("fault-sweep"), Scenario::kFaultSweep);
  EXPECT_TRUE(campaign::scenario_uses_board(Scenario::kFaultSweep));
}

TEST(FaultSweep, ExportCarriesFaultColumns) {
  const std::string header = campaign::csv_header();
  EXPECT_NE(header.find("fault_rate"), std::string::npos);
  EXPECT_NE(header.find("degradations"), std::string::npos);
  EXPECT_NE(header.find("mean_startup_ms"), std::string::npos);

  const CampaignConfig config = base_config(0.125, 1, 4);
  const CampaignStats stats = campaign::run_campaign(config, fixture());
  // to_csv is exactly the header/row contract the benches reuse.
  EXPECT_EQ(campaign::to_csv(config, stats),
            header + "\n" + campaign::csv_row(config, stats));
  EXPECT_NE(campaign::to_json(config, stats).find("\"fault_rate\": 0.125"),
            std::string::npos);
}

}  // namespace
}  // namespace mavr
