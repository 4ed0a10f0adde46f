// Golden results for every board scenario. The v1/v2/v3 flights, the
// detect and analyze sweeps and the fault sweep all boot, fly and score a
// board; each row below pins one such campaign's exported aggregate, and
// both tier settings of a row must reproduce it byte for byte. A change to
// how a board trial is set up, attacked or scored that moves any of these
// strings changes campaign results.
//
// to_json prints "-" for analyze-sweep's attack and detectors and exports
// neither detect_randomize nor analyze_policy, so a row is named by its
// config, not by its JSON.
//
// No row lands its write (0 successes in every v1/v2/v3 flight), so the
// rule that a landed write ends a flight without an engine is not pinned
// here; the detect-sweep tests cover landed writes with an engine armed.
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "campaign/export.hpp"
#include "campaign/scenarios.hpp"

namespace mavr {
namespace {

using campaign::CampaignConfig;
using campaign::DetectAttack;
using campaign::Scenario;

struct GoldenRow {
  const char* name;  ///< gtest parameter name: the row's config
  CampaignConfig config;
  const char* json;  ///< to_json of the campaign, pinned
};

// Names the row in test listings (the default prints the struct's bytes,
// pointers included, which would change from build to build).
void PrintTo(const GoldenRow& row, std::ostream* os) { *os << row.name; }

const campaign::SimFixture& fixture() {
  static const campaign::SimFixture fx =
      campaign::make_sim_fixture(firmware::testapp(/*vulnerable=*/true));
  return fx;
}

CampaignConfig board(Scenario scenario,
                     DetectAttack attack = DetectAttack::kClean) {
  CampaignConfig config;
  config.scenario = scenario;
  config.trials = 16;
  config.seed = 7;
  config.jobs = 1;
  config.detect_attack = attack;
  return config;
}

CampaignConfig randomized(CampaignConfig config) {
  config.detect_randomize = true;
  return config;
}

CampaignConfig no_detectors(CampaignConfig config) {
  config.detectors = detect::kDetectNone;
  return config;
}

CampaignConfig generic(CampaignConfig config) {
  config.analyze_policy = false;
  return config;
}

CampaignConfig faults(double rate) {
  CampaignConfig config = board(Scenario::kFaultSweep);
  config.fault_rate = rate;
  return config;
}

std::vector<GoldenRow> golden_rows() {
  return {
      {"v1", board(Scenario::kV1),
       "{\"scenario\": \"v1\", \"trials\": 16, \"seed\": 7, "
       "\"n_functions\": 5, \"fault_rate\": 0, \"attack\": \"-\", "
       "\"detectors\": \"-\", \"successes\": 0, \"detections\": 8, "
       "\"detector_trips\": 0, \"degradations\": 0, \"mean_attempts\": 1, "
       "\"max_attempts\": 1, \"p50_attempts\": 1, \"p90_attempts\": 1, "
       "\"p99_attempts\": 1, \"mean_cycles\": 3507665.8125, "
       "\"total_cycles\": 56122653, \"mean_startup_ms\": 0, "
       "\"mean_ttd_cycles\": 0}\n"},
      {"v2", board(Scenario::kV2),
       "{\"scenario\": \"v2\", \"trials\": 16, \"seed\": 7, "
       "\"n_functions\": 5, \"fault_rate\": 0, \"attack\": \"-\", "
       "\"detectors\": \"-\", \"successes\": 0, \"detections\": 12, "
       "\"detector_trips\": 0, \"degradations\": 0, \"mean_attempts\": 1, "
       "\"max_attempts\": 1, \"p50_attempts\": 1, \"p90_attempts\": 1, "
       "\"p99_attempts\": 1, \"mean_cycles\": 2016556.4375, "
       "\"total_cycles\": 32264903, \"mean_startup_ms\": 0, "
       "\"mean_ttd_cycles\": 0}\n"},
      {"v3", board(Scenario::kV3),
       "{\"scenario\": \"v3\", \"trials\": 16, \"seed\": 7, "
       "\"n_functions\": 5, \"fault_rate\": 0, \"attack\": \"-\", "
       "\"detectors\": \"-\", \"successes\": 0, \"detections\": 14, "
       "\"detector_trips\": 0, \"degradations\": 0, \"mean_attempts\": 1, "
       "\"max_attempts\": 1, \"p50_attempts\": 1, \"p90_attempts\": 1, "
       "\"p99_attempts\": 1, \"mean_cycles\": 1538137.125, "
       "\"total_cycles\": 24610194, \"mean_startup_ms\": 0, "
       "\"mean_ttd_cycles\": 0}\n"},
      {"detect_clean", board(Scenario::kDetectSweep, DetectAttack::kClean),
       "{\"scenario\": \"detect-sweep\", \"trials\": 16, \"seed\": 7, "
       "\"n_functions\": 5, \"fault_rate\": 0, \"attack\": \"clean\", "
       "\"detectors\": \"canary+shadow+sp-bounds+cfi\", \"successes\": 16, "
       "\"detections\": 0, \"detector_trips\": 0, \"degradations\": 0, "
       "\"mean_attempts\": 1, \"max_attempts\": 1, \"p50_attempts\": 1, "
       "\"p90_attempts\": 1, \"p99_attempts\": 1, \"mean_cycles\": 6400023, "
       "\"total_cycles\": 102400368, \"mean_startup_ms\": 0, "
       "\"mean_ttd_cycles\": 0}\n"},
      {"detect_v1", board(Scenario::kDetectSweep, DetectAttack::kV1),
       "{\"scenario\": \"detect-sweep\", \"trials\": 16, \"seed\": 7, "
       "\"n_functions\": 5, \"fault_rate\": 0, \"attack\": \"v1\", "
       "\"detectors\": \"canary+shadow+sp-bounds+cfi\", \"successes\": 16, "
       "\"detections\": 16, \"detector_trips\": 16, \"degradations\": 0, "
       "\"mean_attempts\": 1, \"max_attempts\": 1, \"p50_attempts\": 1, "
       "\"p90_attempts\": 1, \"p99_attempts\": 1, \"mean_cycles\": 615332, "
       "\"total_cycles\": 9845312, \"mean_startup_ms\": 0, "
       "\"mean_ttd_cycles\": 215242}\n"},
      {"detect_v2", board(Scenario::kDetectSweep, DetectAttack::kV2),
       "{\"scenario\": \"detect-sweep\", \"trials\": 16, \"seed\": 7, "
       "\"n_functions\": 5, \"fault_rate\": 0, \"attack\": \"v2\", "
       "\"detectors\": \"canary+shadow+sp-bounds+cfi\", \"successes\": 16, "
       "\"detections\": 16, \"detector_trips\": 16, \"degradations\": 0, "
       "\"mean_attempts\": 1, \"max_attempts\": 1, \"p50_attempts\": 1, "
       "\"p90_attempts\": 1, \"p99_attempts\": 1, "
       "\"mean_cycles\": 600005.75, \"total_cycles\": 9600092, "
       "\"mean_startup_ms\": 0, \"mean_ttd_cycles\": 155226}\n"},
      {"detect_v3", board(Scenario::kDetectSweep, DetectAttack::kV3),
       "{\"scenario\": \"detect-sweep\", \"trials\": 16, \"seed\": 7, "
       "\"n_functions\": 5, \"fault_rate\": 0, \"attack\": \"v3\", "
       "\"detectors\": \"canary+shadow+sp-bounds+cfi\", \"successes\": 0, "
       "\"detections\": 16, \"detector_trips\": 16, \"degradations\": 0, "
       "\"mean_attempts\": 1, \"max_attempts\": 1, \"p50_attempts\": 1, "
       "\"p90_attempts\": 1, \"p99_attempts\": 1, \"mean_cycles\": 600005, "
       "\"total_cycles\": 9600080, \"mean_startup_ms\": 0, "
       "\"mean_ttd_cycles\": 155226}\n"},
      {"detect_v2_randomize",
       randomized(board(Scenario::kDetectSweep, DetectAttack::kV2)),
       "{\"scenario\": \"detect-sweep\", \"trials\": 16, \"seed\": 7, "
       "\"n_functions\": 5, \"fault_rate\": 0, \"attack\": \"v2\", "
       "\"detectors\": \"canary+shadow+sp-bounds+cfi\", \"successes\": 0, "
       "\"detections\": 16, \"detector_trips\": 16, \"degradations\": 0, "
       "\"mean_attempts\": 1, \"max_attempts\": 1, \"p50_attempts\": 1, "
       "\"p90_attempts\": 1, \"p99_attempts\": 1, "
       "\"mean_cycles\": 566548.3125, \"total_cycles\": 9064773, "
       "\"mean_startup_ms\": 0, \"mean_ttd_cycles\": 155226}\n"},
      {"detect_v1_no_detectors",
       no_detectors(board(Scenario::kDetectSweep, DetectAttack::kV1)),
       "{\"scenario\": \"detect-sweep\", \"trials\": 16, \"seed\": 7, "
       "\"n_functions\": 5, \"fault_rate\": 0, \"attack\": \"v1\", "
       "\"detectors\": \"none\", \"successes\": 16, \"detections\": 16, "
       "\"detector_trips\": 0, \"degradations\": 0, \"mean_attempts\": 1, "
       "\"max_attempts\": 1, \"p50_attempts\": 1, \"p90_attempts\": 1, "
       "\"p99_attempts\": 1, \"mean_cycles\": 615332, "
       "\"total_cycles\": 9845312, \"mean_startup_ms\": 0, "
       "\"mean_ttd_cycles\": 215327}\n"},
      {"analyze_v2_derived", board(Scenario::kAnalyzeSweep, DetectAttack::kV2),
       "{\"scenario\": \"analyze-sweep\", \"trials\": 16, \"seed\": 7, "
       "\"n_functions\": 5, \"fault_rate\": 0, \"attack\": \"-\", "
       "\"detectors\": \"-\", \"successes\": 16, \"detections\": 16, "
       "\"detector_trips\": 16, \"degradations\": 0, \"mean_attempts\": 1, "
       "\"max_attempts\": 1, \"p50_attempts\": 1, \"p90_attempts\": 1, "
       "\"p99_attempts\": 1, \"mean_cycles\": 600005.75, "
       "\"total_cycles\": 9600092, \"mean_startup_ms\": 0, "
       "\"mean_ttd_cycles\": 155226}\n"},
      {"analyze_v3_generic",
       generic(board(Scenario::kAnalyzeSweep, DetectAttack::kV3)),
       "{\"scenario\": \"analyze-sweep\", \"trials\": 16, \"seed\": 7, "
       "\"n_functions\": 5, \"fault_rate\": 0, \"attack\": \"-\", "
       "\"detectors\": \"-\", \"successes\": 0, \"detections\": 16, "
       "\"detector_trips\": 16, \"degradations\": 0, \"mean_attempts\": 1, "
       "\"max_attempts\": 1, \"p50_attempts\": 1, \"p90_attempts\": 1, "
       "\"p99_attempts\": 1, \"mean_cycles\": 600005, "
       "\"total_cycles\": 9600080, \"mean_startup_ms\": 0, "
       "\"mean_ttd_cycles\": 155226}\n"},
      {"fault_0", faults(0.0),
       "{\"scenario\": \"fault-sweep\", \"trials\": 16, \"seed\": 7, "
       "\"n_functions\": 5, \"fault_rate\": 0, \"attack\": \"-\", "
       "\"detectors\": \"-\", \"successes\": 16, \"detections\": 0, "
       "\"detector_trips\": 0, \"degradations\": 0, \"mean_attempts\": 1, "
       "\"max_attempts\": 1, \"p50_attempts\": 1, \"p90_attempts\": 1, "
       "\"p99_attempts\": 1, \"mean_cycles\": 100006, "
       "\"total_cycles\": 1600096, \"mean_startup_ms\": 664.58333333333337, "
       "\"mean_ttd_cycles\": 0}\n"},
      {"fault_0_05", faults(0.05),
       "{\"scenario\": \"fault-sweep\", \"trials\": 16, \"seed\": 7, "
       "\"n_functions\": 5, \"fault_rate\": 0.050000000000000003, "
       "\"attack\": \"-\", \"detectors\": \"-\", \"successes\": 16, "
       "\"detections\": 0, \"detector_trips\": 0, \"degradations\": 0, "
       "\"mean_attempts\": 5.875, \"max_attempts\": 12, \"p50_attempts\": 5, "
       "\"p90_attempts\": 9, \"p99_attempts\": 12, \"mean_cycles\": 100006, "
       "\"total_cycles\": 1600096, \"mean_startup_ms\": 782.50520833333326, "
       "\"mean_ttd_cycles\": 0}\n"},
      {"fault_0_5", faults(0.5),
       "{\"scenario\": \"fault-sweep\", \"trials\": 16, \"seed\": 7, "
       "\"n_functions\": 5, \"fault_rate\": 0.5, \"attack\": \"-\", "
       "\"detectors\": \"-\", \"successes\": 0, \"detections\": 0, "
       "\"detector_trips\": 0, \"degradations\": 16, "
       "\"mean_attempts\": 20.3125, \"max_attempts\": 29, "
       "\"p50_attempts\": 21, \"p90_attempts\": 29, \"p99_attempts\": 29, "
       "\"mean_cycles\": 0, \"total_cycles\": 0, \"mean_startup_ms\": 0, "
       "\"mean_ttd_cycles\": 0}\n"},
  };
}

class BoardGolden : public testing::TestWithParam<GoldenRow> {};

TEST_P(BoardGolden, BothTiersMatchPinnedJson) {
  const GoldenRow& row = GetParam();
  for (const bool tier : {true, false}) {
    CampaignConfig config = row.config;
    config.exec_tier = tier;
    const std::string json =
        campaign::to_json(config, campaign::run_campaign(config, fixture()));
    EXPECT_EQ(json, row.json) << row.name << " with exec_tier "
                              << (tier ? "on" : "off");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Rows, BoardGolden, testing::ValuesIn(golden_rows()),
    [](const testing::TestParamInfo<GoldenRow>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace mavr
