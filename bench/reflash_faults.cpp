// Reflash pipeline under fault pressure: recovery probability and startup
// overhead as a function of the injection rate.
//
// Sweeps the fault-sweep campaign scenario over a rate ladder. Each rate
// runs N independent trials of "clean boot, arm the fault plane on every
// hardware boundary, re-randomize under faults"; the pipeline must end in
// a verified state every time, so the interesting numbers are how often it
// recovers the *fresh* image (vs. degrading to last-known-good or a held
// bootloader) and what the retries cost in startup time.
//
// Emits the same header + row CSV shape as mavr-campaign --out, one row
// per rate, so the sweep diffs cleanly against single-run exports:
//
//   reflash_faults [--trials N] [--jobs N] [--out FILE.{csv,json}]
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "campaign/export.hpp"
#include "campaign/scenarios.hpp"
#include "support/error.hpp"
#include "support/parse.hpp"

namespace {

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: reflash_faults [--trials N] [--jobs N] "
               "[--out FILE.{csv,json}]\n");
  return 2;
}

int bad_value(const char* flag, const char* value) {
  std::fprintf(stderr, "invalid value for %s: '%s'\n", flag, value);
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mavr;
  std::uint64_t trials = 32;
  unsigned jobs = 4;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const auto arg_value = [&](const char* name) -> const char* {
      if (std::strcmp(argv[i], name) != 0) return nullptr;
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (const char* v = arg_value("--trials")) {
      const auto n = support::parse_u64_in(v, 1, UINT64_MAX);
      if (!n) return bad_value("--trials", v);
      trials = *n;
    } else if (const char* v = arg_value("--jobs")) {
      const auto n = support::parse_u64_in(v, 1, 256);
      if (!n) return bad_value("--jobs", v);
      jobs = static_cast<unsigned>(*n);
    } else if (const char* v = arg_value("--out")) {
      out_path = v;
    } else {
      return usage();
    }
  }

  bench::heading("Reflash pipeline: recovery vs. fault injection rate");

  // One fixture for the whole sweep: the firmware build is the slow part
  // and the fault schedule only depends on the trial Rng, not the image.
  const campaign::SimFixture fixture =
      campaign::make_sim_fixture(firmware::testapp(/*vulnerable=*/true));

  const std::vector<double> rates = {0.0,  0.002, 0.005, 0.01,
                                     0.02, 0.05,  0.1};
  std::printf("%llu trials per rate, %u jobs, seed fixed per rate\n\n",
              static_cast<unsigned long long>(trials), jobs);
  std::printf("%-12s %-10s %-12s %-14s %-12s\n", "fault rate", "fresh %",
              "degraded %", "startup (ms)", "wall (s)");

  std::string csv = std::string(campaign::csv_header()) + "\n";
  std::string json;
  double baseline_ms = 0;
  try {
    for (double rate : rates) {
      campaign::CampaignConfig config;
      config.scenario = campaign::Scenario::kFaultSweep;
      config.trials = trials;
      config.jobs = jobs;
      config.seed = 0xFA0175;
      config.fault_rate = rate;

      const auto t0 = std::chrono::steady_clock::now();
      const campaign::CampaignStats stats =
          campaign::run_campaign(config, fixture);
      const double wall_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      if (rate == 0.0) baseline_ms = stats.mean_startup_ms;

      const auto pct = [&](std::uint64_t n) {
        return 100.0 * static_cast<double>(n) /
               static_cast<double>(stats.trials);
      };
      std::printf("%-12g %-10.1f %-12.1f %-14.2f %-12.2f\n", rate,
                  pct(stats.successes), pct(stats.degradations),
                  stats.mean_startup_ms, wall_s);
      csv += campaign::csv_row(config, stats);
      json += campaign::to_json(config, stats);
    }
  } catch (const support::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  if (baseline_ms > 0) {
    std::printf("\nfault-free startup is the baseline (%.2f ms); overhead at "
                "higher rates is\nretry + backoff time only — verification "
                "is pipelined with the page stream.\n",
                baseline_ms);
  }

  if (!out_path.empty()) {
    const bool is_csv = ends_with(out_path, ".csv");
    if (!is_csv && !ends_with(out_path, ".json")) {
      std::fprintf(stderr, "--out must end in .csv or .json\n");
      return 2;
    }
    std::ofstream out(out_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
      return 1;
    }
    out << (is_csv ? csv : json);
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
}
