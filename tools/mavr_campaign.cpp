// mavr-campaign — fleet-scale attack/defense trial runner.
//
//   mavr-campaign --scenario {v1,v2,v3,bruteforce-fixed,bruteforce-rerand,
//                             fault-sweep,detect-sweep,analyze-sweep}
//                 [--trials N] [--jobs N] [--seed N] [--functions N]
//                 [--fault-rate X]
//                 [--detectors LIST] [--attack {clean,v1,v2,v3}]
//                 [--randomize {on,off}] [--generic] [--exec-tier {on,off}]
//                 [--connect ENDPOINT] [--auth-token-file FILE]
//                 [--out FILE.{csv,json}]
//   mavr-campaign --list-scenarios
//
// Runs N independent trials of the chosen scenario across a thread pool.
// Board scenarios (v1/v2/v3) stand up a fresh board behind a freshly
// MAVR-randomized firmware per trial and deliver one stock-derived attack;
// brute-force scenarios run the paper's §V-D models; fault-sweep runs the
// self-healing reflash pipeline against an armed fault plane at
// --fault-rate; detect-sweep arms the runtime intrusion detectors
// (--detectors, a comma list of canary,shadow,sp-bounds,cfi or all/none)
// against one attack variant or a clean flight (--attack), with MAVR
// randomization off unless --randomize on; analyze-sweep is the same
// harness with the static-analysis-derived per-function policy (DESIGN.md
// §15) loaded at every reflash — an in-process run also replays the
// generic baseline and prints the detection-rate delta (--generic runs
// only the baseline).
//
// With --connect the campaign is submitted to a running mavr-campaignd
// coordinator instead of running in-process; ENDPOINT is `unix:/path`,
// `tcp:host:port`, or a bare AF_UNIX path, and --auth-token-file supplies
// the coordinator's shared handshake token (required over TCP when the
// daemon has one). The stats (and any --out file) are bit-identical
// either way — for any --jobs value, any worker count, and any transport
// (see DESIGN.md §12–§13).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>

#include <unistd.h>

#include "campaign/export.hpp"
#include "campaign/scenarios.hpp"
#include "campaignd/client.hpp"
#include "defense/bruteforce.hpp"
#include "support/error.hpp"
#include "support/parse.hpp"

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: mavr-campaign --scenario "
      "{v1,v2,v3,bruteforce-fixed,bruteforce-rerand,fault-sweep,"
      "detect-sweep,analyze-sweep}\n"
      "                     [--trials N] [--jobs N] [--seed N]\n"
      "                     [--functions N] [--fault-rate X]\n"
      "                     [--detectors {canary,shadow,sp-bounds,cfi}*|"
      "all|none]\n"
      "                     [--attack {clean,v1,v2,v3}] "
      "[--randomize {on,off}] [--generic]\n"
      "                     [--exec-tier {on,off}]\n"
      "                     [--connect ENDPOINT] [--auth-token-file FILE]\n"
      "                     [--out FILE.{csv,json}]\n"
      "       mavr-campaign --list-scenarios\n");
  return 2;
}

int bad_value(const char* flag, const char* value) {
  std::fprintf(stderr, "invalid value for %s: '%s'\n", flag, value);
  return usage();
}

int list_scenarios() {
  for (mavr::campaign::Scenario s : mavr::campaign::all_scenarios()) {
    std::printf("%-18s %s\n", mavr::campaign::scenario_name(s),
                mavr::campaign::scenario_description(s));
  }
  return 0;
}

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

/// Everything below the header line: per-scenario detail plus the
/// optional export, shared by the in-process and --connect paths (the
/// stats are bit-identical, so the output is too).
int report(const mavr::campaign::CampaignConfig& config,
           const mavr::campaign::CampaignStats& stats,
           const std::string& out_path,
           const mavr::campaign::CampaignStats* generic_baseline = nullptr) {
  using namespace mavr;
  std::printf("  successes:  %llu (%.2f%%)   detections: %llu (%.2f%%)\n",
              static_cast<unsigned long long>(stats.successes),
              100.0 * static_cast<double>(stats.successes) /
                  static_cast<double>(stats.trials),
              static_cast<unsigned long long>(stats.detections),
              100.0 * static_cast<double>(stats.detections) /
                  static_cast<double>(stats.trials));
  std::printf("  attempts:   mean %.2f  p50 %.0f  p90 %.0f  p99 %.0f  "
              "max %.0f\n",
              stats.mean_attempts, stats.p50_attempts, stats.p90_attempts,
              stats.p99_attempts, stats.max_attempts);
  if (config.scenario == campaign::Scenario::kDetectSweep ||
      config.scenario == campaign::Scenario::kAnalyzeSweep) {
    std::printf("  attack: %s   detectors: %s   randomize: %s\n",
                campaign::detect_attack_name(config.detect_attack),
                detect::detector_set_name(config.detectors).c_str(),
                config.detect_randomize ? "on" : "off");
    std::printf("  detector trips: %llu (%.2f%%)   mean time-to-detect: "
                "%.0f cycles\n",
                static_cast<unsigned long long>(stats.detector_trips),
                100.0 * static_cast<double>(stats.detector_trips) /
                    static_cast<double>(stats.trials),
                stats.mean_ttd_cycles);
  }
  if (config.scenario == campaign::Scenario::kAnalyzeSweep) {
    std::printf("  policy: %s\n",
                config.analyze_policy ? "analysis-derived" : "generic");
    if (generic_baseline != nullptr) {
      const double derived_rate = 100.0 *
                                  static_cast<double>(stats.detections) /
                                  static_cast<double>(stats.trials);
      const double generic_rate =
          100.0 * static_cast<double>(generic_baseline->detections) /
          static_cast<double>(generic_baseline->trials);
      std::printf("  detection rate: derived %.2f%% vs generic %.2f%% "
                  "(delta %+.2f%%)\n",
                  derived_rate, generic_rate, derived_rate - generic_rate);
    }
  }
  if (config.scenario == campaign::Scenario::kFaultSweep) {
    std::printf("  fault rate: %g   degradations: %llu (%.2f%%)   "
                "mean startup: %.2f ms\n",
                config.fault_rate,
                static_cast<unsigned long long>(stats.degradations),
                100.0 * static_cast<double>(stats.degradations) /
                    static_cast<double>(stats.trials),
                stats.mean_startup_ms);
  }
  if (stats.total_cycles > 0) {
    std::printf("  board time: mean %.0f cycles/trial, %llu total\n",
                stats.mean_cycles,
                static_cast<unsigned long long>(stats.total_cycles));
  }
  if (!campaign::scenario_uses_board(config.scenario)) {
    const double n_perms = defense::permutation_count(config.n_functions);
    const double expected =
        config.scenario == campaign::Scenario::kBruteForceFixed
            ? defense::expected_attempts_fixed(n_perms)
            : defense::expected_attempts_rerandomized(n_perms);
    std::printf("  analytic:   n=%u -> N=%.0f permutations, E[attempts] "
                "= %.2f (measured/analytic = %.4f)\n",
                config.n_functions, n_perms, expected,
                stats.mean_attempts / expected);
  }

  if (!out_path.empty()) {
    const bool csv = ends_with(out_path, ".csv");
    if (!csv && !ends_with(out_path, ".json")) {
      std::fprintf(stderr, "--out must end in .csv or .json\n");
      return 2;
    }
    std::ofstream out(out_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
      return 1;
    }
    out << (csv ? campaign::to_csv(config, stats)
                : campaign::to_json(config, stats));
    std::printf("  wrote %s\n", out_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mavr;
  campaign::CampaignConfig config;
  config.trials = 1000;
  config.jobs = 1;
  bool have_scenario = false;
  std::string out_path;
  std::string connect_path;
  std::string token_file;

  for (int i = 1; i < argc; ++i) {
    const auto arg_value = [&](const char* name) -> const char* {
      if (std::strcmp(argv[i], name) != 0) return nullptr;
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--list-scenarios") == 0) {
      return list_scenarios();
    }
    if (const char* v = arg_value("--scenario")) {
      const auto scenario = campaign::parse_scenario(v);
      if (!scenario) {
        std::fprintf(stderr, "unknown scenario: %s\n", v);
        return usage();
      }
      config.scenario = *scenario;
      have_scenario = true;
    } else if (const char* v = arg_value("--trials")) {
      const auto trials = support::parse_u64_in(v, 1, UINT64_MAX);
      if (!trials) return bad_value("--trials", v);
      config.trials = *trials;
    } else if (const char* v = arg_value("--jobs")) {
      const auto jobs = support::parse_u64_in(v, 1, 256);
      if (!jobs) return bad_value("--jobs", v);
      config.jobs = static_cast<unsigned>(*jobs);
    } else if (const char* v = arg_value("--seed")) {
      const auto seed = support::parse_u64(v);
      if (!seed) return bad_value("--seed", v);
      config.seed = *seed;
    } else if (const char* v = arg_value("--functions")) {
      const auto functions = support::parse_u64_in(v, 1, UINT32_MAX);
      if (!functions) return bad_value("--functions", v);
      config.n_functions = static_cast<std::uint32_t>(*functions);
    } else if (const char* v = arg_value("--fault-rate")) {
      const auto rate = support::parse_f64(v);
      if (!rate || *rate < 0.0 || *rate > 1.0) {
        return bad_value("--fault-rate", v);
      }
      config.fault_rate = *rate;
    } else if (const char* v = arg_value("--detectors")) {
      const auto mask = detect::parse_detector_set(v);
      if (!mask) {
        std::fprintf(stderr, "unknown detector list: %s\n", v);
        return usage();
      }
      config.detectors = *mask;
    } else if (const char* v = arg_value("--attack")) {
      const auto attack = campaign::parse_detect_attack(v);
      if (!attack) {
        std::fprintf(stderr, "unknown attack: %s\n", v);
        return usage();
      }
      config.detect_attack = *attack;
    } else if (const char* v = arg_value("--randomize")) {
      if (std::strcmp(v, "on") == 0) {
        config.detect_randomize = true;
      } else if (std::strcmp(v, "off") == 0) {
        config.detect_randomize = false;
      } else {
        std::fprintf(stderr, "--randomize takes on|off\n");
        return usage();
      }
    } else if (const char* v = arg_value("--exec-tier")) {
      if (std::strcmp(v, "on") == 0) {
        config.exec_tier = true;
      } else if (std::strcmp(v, "off") == 0) {
        config.exec_tier = false;
      } else {
        std::fprintf(stderr, "--exec-tier takes on|off\n");
        return usage();
      }
    } else if (std::strcmp(argv[i], "--generic") == 0) {
      config.analyze_policy = false;
    } else if (const char* v = arg_value("--connect")) {
      connect_path = v;
    } else if (const char* v = arg_value("--auth-token-file")) {
      token_file = v;
    } else if (const char* v = arg_value("--out")) {
      out_path = v;
    } else {
      std::fprintf(stderr, "bad argument: %s\n", argv[i]);
      return usage();
    }
  }
  if (!have_scenario) return usage();

  std::string auth_token;
  if (!token_file.empty() &&
      !campaignd::read_token_file(token_file, &auth_token)) {
    std::fprintf(stderr, "cannot read --auth-token-file %s\n",
                 token_file.c_str());
    return 1;
  }

  try {
    // One fixture (and one static-analysis pass) serves every in-process
    // run. It is set-up, not trials, so the clock starts after it.
    std::optional<campaign::SimFixture> fixture;
    if (connect_path.empty() &&
        campaign::scenario_uses_board(config.scenario)) {
      fixture =
          campaign::make_sim_fixture(firmware::testapp(/*vulnerable=*/true));
    }
    const auto t0 = std::chrono::steady_clock::now();
    campaign::CampaignStats stats;
    campaign::CampaignStats generic_stats;
    bool have_generic = false;
    if (connect_path.empty()) {
      stats = fixture ? campaign::run_campaign(config, *fixture)
                      : campaign::run_campaign(config);
      if (config.scenario == campaign::Scenario::kAnalyzeSweep &&
          config.analyze_policy) {
        // The baseline replays the identical trial stream with the generic
        // detectors alone, so the delta isolates the policy.
        campaign::CampaignConfig generic = config;
        generic.analyze_policy = false;
        generic_stats = campaign::run_campaign(generic, *fixture);
        have_generic = true;
      }
    } else {
      // Resilient client (DESIGN.md §14): retries ride out a coordinator
      // restart or dropped frames instead of dying on first ECONNRESET.
      // Submit retry is safe (idempotent at the coordinator); the wait
      // budget is consecutive, reset by every successful poll; progress
      // resumes from the coordinator's incremental aggregate.
      campaignd::ClientOptions client;
      client.auth_token = auth_token;
      client.max_retries = 10;
      client.retry_seed = static_cast<std::uint64_t>(::getpid());
      const campaignd::SubmitOutcome submit =
          campaignd::submit_campaign(connect_path, config, client);
      if (!submit.ok) {
        std::fprintf(stderr, "submit failed: %s\n", submit.error.c_str());
        return 1;
      }
      std::printf("submitted campaign %llu to %s\n",
                  static_cast<unsigned long long>(submit.campaign_id),
                  connect_path.c_str());
      const campaignd::PollOutcome done = campaignd::wait_campaign(
          connect_path, submit.campaign_id, client, /*interval_ms=*/50,
          /*timeout_ms=*/-1);
      if (!done.ok) {
        std::fprintf(stderr, "wait failed: %s\n", done.error.c_str());
        return 1;
      }
      stats = done.status.stats;
    }
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    if (connect_path.empty()) {
      // Every trial the clock covers, the generic baseline's included.
      const std::uint64_t trials =
          stats.trials + (have_generic ? generic_stats.trials : 0);
      std::printf("scenario %s: %llu trials, %u jobs, seed %llu (%.2f s, "
                  "%.0f trials/s)\n",
                  campaign::scenario_name(config.scenario),
                  static_cast<unsigned long long>(trials), config.jobs,
                  static_cast<unsigned long long>(config.seed), wall_s,
                  static_cast<double>(trials) / wall_s);
    } else {
      std::printf("scenario %s: %llu trials via %s, seed %llu (%.2f s, "
                  "%.0f trials/s)\n",
                  campaign::scenario_name(config.scenario),
                  static_cast<unsigned long long>(stats.trials),
                  connect_path.c_str(),
                  static_cast<unsigned long long>(config.seed), wall_s,
                  static_cast<double>(stats.trials) / wall_s);
    }
    return report(config, stats, out_path,
                  have_generic ? &generic_stats : nullptr);
  } catch (const support::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
