// Campaign-trial benchmark.
//
// Runs one named workload of board-scenario campaign trials through the
// public campaign API (make_sim_fixture / make_trial_fn / run_trials) and
// prints its metrics; the last line of standard output is one JSON object.
//
//   campaign_bench --workload NAME --seed N --seconds S --trace 0|1
//                  [--reference-dir DIR] [--out-dir DIR] [--smoke]
//
// Load: one process, closed loop. Trials run in fixed-size batches through
// run_trials; each worker starts its next trial when the previous one ends.
// Jobs 1 gives throughput and per-trial latency; jobs min(4, nproc) gives
// parallel throughput.
//
// Correctness gate: every run first replays the workload at the pinned seed
// at jobs 1 and jobs N (and, with --trace 1, through the traced mirror) and
// requires campaign::to_json of each to equal the pinned reference. The
// traced run's batches must also equal the untraced jobs-1 batches of the
// same seeds. Any difference names the workload and field and exits 1.
//
// --trace 0 prints the end-to-end metrics, their times scaled to the
// reference host by probes timed between batches (hostspeed.hpp), with the
// unscaled figures on the line before; --trace 1 prints the per-layer
// metrics, taken from the traced mirror (see mirror.hpp) and from
// standalone probes of the sub-stages of a reflash.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/export.hpp"
#include "campaign/scenarios.hpp"
#include "defense/patcher.hpp"
#include "defense/preprocess.hpp"
#include "detect/engine.hpp"
#include "firmware/profile.hpp"
#include "hostspeed.hpp"
#include "mirror.hpp"
#include "spans.hpp"
#include "support/crc.hpp"
#include "support/rng.hpp"
#include "toolchain/intelhex.hpp"

namespace {

namespace campaign = mavr::campaign;
using campaign::CampaignConfig;
using campaign::CampaignStats;
using campaign::SimFixture;
using campaign::TrialFn;
using perfbench::median;
using perfbench::now_ns;

/// Seed the correctness gate replays; its results are pinned per workload.
constexpr std::uint64_t kGateSeed = 1;
/// Gate size: four 64-trial chunks, so jobs N spreads them over workers.
constexpr std::uint64_t kGateTrials = 256;
/// Jobs-1 trials run back to back on one CPU before the worker moves on.
/// A move costs the next trial its warm private caches: moving before
/// every trial cut jobs-1 throughput by about 16% on fault-reflash, moving
/// every 16 trials by about 1%, with the same run-to-run spread.
constexpr std::uint64_t kTrialsPerCpu = 16;

// --- Workloads ---------------------------------------------------------------

struct Workload {
  const char* name;
  CampaignConfig config;
};

std::vector<Workload> workloads() {
  std::vector<Workload> out;
  {
    // The paper's headline stealthy attack against a re-randomized board:
    // mostly tier execution plus one reflash per detected trial.
    CampaignConfig c;
    c.scenario = campaign::Scenario::kV2;
    out.push_back({"v2-rerand", c});
  }
  {
    // The research workload: every instruction runs through the traced
    // interpreter and the detector hooks; the tier never runs.
    CampaignConfig c;
    c.scenario = campaign::Scenario::kAnalyzeSweep;
    c.detect_attack = campaign::DetectAttack::kV2;
    c.detectors = mavr::detect::kDetectAll;
    c.analyze_policy = true;
    c.detect_randomize = false;
    out.push_back({"analyze-v2", c});
  }
  {
    // Two full reflashes per trial under a 5% fault plane and a short
    // flight: reflash and per-trial construction dominate.
    CampaignConfig c;
    c.scenario = campaign::Scenario::kFaultSweep;
    c.fault_rate = 0.05;
    out.push_back({"fault-reflash", c});
  }
  return out;
}

// --- Arguments ---------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;  ///< tiny trial counts, for the benchmark's self-test
  std::string reference_dir = "perfbench/reference";
  std::string out_dir = ".bench_out";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "campaign_bench: %s\n"
               "usage: campaign_bench --workload {v2-rerand,analyze-v2,"
               "fault-reflash} --seed N --seconds S --trace {0,1}\n"
               "                      [--reference-dir DIR] [--out-dir DIR] "
               "[--smoke]\n",
               why.c_str());
  std::exit(2);
}

template <typename T>
T parse_number(const std::string& flag, const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) usage("bad value for " + flag);
  return value;
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = parse_number<std::uint64_t>(flag, value);
    } else if (flag == "--seconds") {
      a.seconds = parse_number<double>(flag, value);
      if (!(a.seconds > 0)) usage("--seconds must be positive");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--reference-dir") {
      a.reference_dir = value;
    } else if (flag == "--out-dir") {
      a.out_dir = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

// --- Statistics --------------------------------------------------------------

/// Nearest-rank percentile of a sorted sample.
double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  auto rank = static_cast<std::size_t>(std::ceil(p * sorted.size()));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double ratio(double num, double den) { return den != 0 ? num / den : 0; }

// --- Measured phases ---------------------------------------------------------

/// While alive, lets the calling thread move itself round the CPUs it may
/// use; restores its affinity at the end.
class CpuRotation {
 public:
  CpuRotation() {
    if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &saved_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() {
    if (moved_) sched_setaffinity(0, sizeof saved_, &saved_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins the calling thread to the n-th CPU, modulo their count.
  void pin(std::uint64_t n) {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[n % cpus_.size()], &one);
    moved_ = sched_setaffinity(0, sizeof one, &one) == 0 || moved_;
  }

 private:
  cpu_set_t saved_{};
  std::vector<int> cpus_;
  bool moved_ = false;
};

/// One measured phase: run_trials batches of one trial body at one jobs
/// value. Batch k runs at seed derive_seed(seed, k), so phases of one run
/// that share a batch size also share their inputs batch for batch.
struct Phase {
  using Factory = std::function<TrialFn(const CampaignConfig&)>;
  Phase(const CampaignConfig& base, Factory factory, unsigned jobs,
        std::uint64_t batch, std::uint64_t seed, double share)
      : base(&base), factory(std::move(factory)), jobs(jobs), batch(batch),
        seed(seed), share(share) {}

  const CampaignConfig* base;
  Factory factory;
  unsigned jobs;
  std::uint64_t batch;  ///< trials per batch
  std::uint64_t seed;
  double share;  ///< target share of the run's measured time
  std::uint64_t min_trials = 0;

  std::uint64_t next_batch = 0;
  std::uint64_t trials = 0;  ///< trials attempted
  std::uint64_t failed = 0;  ///< trials that threw
  double busy_s = 0;         ///< wall time spent in this phase's batches
  std::vector<double> batch_rates;  ///< trials/s of each completed batch
  std::vector<double> trial_ms;     ///< per-trial latency
  double trial_ns = 0;  ///< summed trial time
  double pool_ns = 0;   ///< summed jobs x batch wall time
  std::vector<std::string> results;  ///< to_json per completed batch

  /// Runs the next batch. The trial fn is wrapped with two clock reads per
  /// trial; run_trials itself is unchanged.
  void run_batch() {
    const std::uint64_t k = next_batch++;
    CampaignConfig cfg = *base;
    cfg.trials = batch;
    cfg.jobs = jobs;
    cfg.seed = mavr::support::Rng::derive_seed(seed, k);
    const TrialFn inner = factory(cfg);
    std::vector<std::pair<std::int64_t, std::int64_t>> slots(batch);
    std::atomic<std::uint64_t> thrown{0};
    // A single worker stays on one CPU for as long as the scheduler lets
    // it, and on a shared host that CPU's speed drifts with its neighbours'
    // load for seconds at a time. Moving the jobs-1 worker to the next CPU
    // every kTrialsPerCpu trials samples all of them, as the jobs-N pool
    // does.
    std::optional<CpuRotation> rotation;
    if (jobs == 1) rotation.emplace();
    const TrialFn timed = [&](std::uint64_t i, mavr::support::Rng& rng) {
      if (rotation && i % kTrialsPerCpu == 0) {
        rotation->pin(i / kTrialsPerCpu);
      }
      const std::int64_t t0 = now_ns();
      try {
        campaign::TrialResult r = inner(i, rng);
        slots[i] = {t0, now_ns()};
        return r;
      } catch (...) {
        thrown.fetch_add(1, std::memory_order_relaxed);
        throw;
      }
    };
    trials += batch;
    const std::int64_t w0 = now_ns();
    try {
      const CampaignStats stats = campaign::run_trials(cfg, timed);
      const auto wall = static_cast<double>(now_ns() - w0);
      busy_s += 1e-9 * wall;
      batch_rates.push_back(static_cast<double>(batch) / (1e-9 * wall));
      pool_ns += wall * jobs;
      for (const auto& [t0, t1] : slots) {
        const auto d = static_cast<double>(t1 - t0);
        trial_ns += d;
        trial_ms.push_back(1e-6 * d);
      }
      results.push_back(campaign::to_json(cfg, stats));
    } catch (const std::exception& e) {
      // A throwing trial aborts its batch; count it, keep measuring.
      busy_s += 1e-9 * static_cast<double>(now_ns() - w0);
      failed += std::max<std::uint64_t>(thrown.load(), 1);
      std::fprintf(stderr, "campaign_bench: jobs %u batch %llu failed: %s\n",
                   jobs, static_cast<unsigned long long>(k), e.what());
    }
  }

  /// Median over the completed batches of trials per second of wall time.
  /// A slow spell of the host that covers a minority of the batches moves
  /// it less than it moves the run's total trials over total time.
  double rate() const { return median(batch_rates); }

  bool satisfied() const {
    return !batch_rates.empty() && trials >= min_trials;
  }
};

/// Interleaves the phases' batches so each phase's busy time tracks its
/// share of the run: a slow spell of the host then lands on every phase
/// alike instead of on whichever phase happened to run during it. Stops
/// once `seconds` have passed and every phase is satisfied. `between`
/// runs after every batch.
void run_interleaved(const std::vector<Phase*>& phases, double seconds,
                     const std::function<void()>& between) {
  const std::int64_t t_begin = now_ns();
  for (;;) {
    const bool time_up =
        1e-9 * static_cast<double>(now_ns() - t_begin) >= seconds;
    Phase* next = nullptr;
    for (Phase* p : phases) {
      if (time_up && p->satisfied()) continue;
      if (next == nullptr ||
          p->busy_s / p->share < next->busy_s / next->share) {
        next = p;
      }
    }
    if (next == nullptr) break;
    next->run_batch();
    between();
  }
  for (const Phase* p : phases) {
    std::fprintf(stderr, "jobs %u batch rates (trials/s):", p->jobs);
    for (double r : p->batch_rates) std::fprintf(stderr, " %.0f", r);
    std::fprintf(stderr, "\n");
  }
}

// --- Correctness gate --------------------------------------------------------

/// Splits a flat one-line JSON object (campaign::to_json) into fields.
std::vector<std::pair<std::string, std::string>> fields(std::string s) {
  while (!s.empty() && (s.back() == '\n' || s.back() == '}')) s.pop_back();
  if (!s.empty() && s.front() == '{') s.erase(0, 1);
  std::vector<std::pair<std::string, std::string>> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t end = s.find(", \"", pos);
    if (end == std::string::npos) end = s.size();
    const std::string item = s.substr(pos, end - pos);
    const std::size_t colon = item.find("\": ");
    if (colon == std::string::npos) {
      out.emplace_back(item, "");
    } else {
      out.emplace_back(item.substr(1, colon - 1), item.substr(colon + 3));
    }
    pos = end == s.size() ? end : end + 2;
  }
  return out;
}

/// Empty when equal, else a message naming the first differing field.
std::string diff(const std::string& want, const std::string& got) {
  if (want == got) return "";
  const auto a = fields(want);
  const auto b = fields(got);
  for (std::size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
    if (i >= a.size() || i >= b.size()) return "field count differs";
    if (a[i] != b[i]) {
      return "field '" + a[i].first + "' is " + b[i].second + ", expected " +
             (a[i].first == b[i].first ? a[i].second
                                       : "field '" + b[i].first + "'");
    }
  }
  return "formatting differs";
}

struct Gate {
  std::vector<std::string> errors;
  void check(const std::string& workload, const std::string& what,
             const std::string& want, const std::string& got) {
    const std::string d = diff(want, got);
    if (!d.empty()) {
      errors.push_back("workload " + workload + ": " + what + ": " + d);
    }
  }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return "";
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// --- Probes of the sub-stages of a reflash -----------------------------------

volatile std::uint64_t g_sink = 0;

/// Median time per call of `fn`, in microseconds, over calls repeated for
/// `seconds` (and at least five).
template <typename F>
double probe_us(double seconds, F&& fn) {
  std::vector<double> us;
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  while (us.size() < 5 || now_ns() < end) {
    const std::int64_t t0 = now_ns();
    g_sink = g_sink + fn();
    us.push_back(1e-3 * static_cast<double>(now_ns() - t0));
  }
  return median(us);
}

// --- Output ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc() ? std::string(buf, ptr) : "0";
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-34s %14s %s\n", m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str());
  }
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " +
            number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const std::vector<Workload> all = workloads();
  const auto wit =
      std::find_if(all.begin(), all.end(),
                   [&](const Workload& w) { return args.workload == w.name; });
  if (wit == all.end()) usage("unknown workload " + args.workload);
  const Workload& wl = *wit;
  const std::string ref_path =
      args.reference_dir + "/" + wl.name + ".json";
  const std::string reference = read_file(ref_path);
  if (reference.empty()) {
    std::fprintf(stderr, "campaign_bench: no pinned reference at %s\n",
                 ref_path.c_str());
    return 1;
  }

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned jobs_par = std::min(4u, hw);
  const double S = args.seconds;
  // Timed after every batch; scales the end-to-end times (hostspeed.hpp).
  perfbench::HostSpeed host;

  // Set-up: the fixture the trials use. More set-up samples are taken
  // between batches (see below), so they span the whole run.
  std::vector<double> setup_s;
  auto build_fixture = [&setup_s] {
    const std::int64_t t0 = now_ns();
    SimFixture built =
        campaign::make_sim_fixture(mavr::firmware::testapp(true));
    setup_s.push_back(1e-9 * static_cast<double>(now_ns() - t0));
    return built;
  };
  const SimFixture fx = build_fixture();

  const auto untraced = [&fx](const CampaignConfig& cfg) {
    return campaign::make_trial_fn(cfg, &fx);
  };
  perfbench::SpanLog log;
  perfbench::LayerCounters counters;
  const auto traced = [&](const CampaignConfig& cfg) {
    return perfbench::traced_trial_fn(cfg, fx, log, counters);
  };

  // Gate at the pinned seed.
  Gate gate;
  {
    CampaignConfig cfg = wl.config;
    cfg.trials = kGateTrials;
    cfg.seed = kGateSeed;
    cfg.jobs = 1;
    auto replay = [&](const TrialFn& fn) {
      return campaign::to_json(cfg, campaign::run_trials(cfg, fn));
    };
    gate.check(wl.name, "jobs 1 vs reference", reference,
               replay(untraced(cfg)));
    cfg.jobs = jobs_par;
    gate.check(wl.name, "jobs " + std::to_string(jobs_par) + " vs reference",
               reference, replay(untraced(cfg)));
    if (args.trace) {
      cfg.jobs = 1;
      gate.check(wl.name, "traced mirror vs reference", reference,
                 replay(traced(cfg)));
      log.clear();
      counters = {};
    }
  }

  // Jobs-1 batches stay short so that the three phases interleave finely;
  // jobs-N batches hold 16 chunks so that the pool stays balanced to the
  // end of a batch. The traced mode leaves a tenth of the run to the probes.
  Phase p1(wl.config, untraced, 1, args.smoke ? 32 : 128, args.seed,
           args.trace ? 0.3 : 0.6);
  Phase pn(wl.config, untraced, jobs_par, args.smoke ? 256 : 1024, args.seed,
           args.trace ? 0.25 : 0.4);
  Phase pt(wl.config, traced, 1, p1.batch, args.seed, 0.35);
  // The traced mode's p99 needs at least ten samples beyond it.
  if (args.trace && !args.smoke) p1.min_trials = 1100;

  std::vector<Phase*> phases = {&p1, &pn};
  if (args.trace) phases.push_back(&pt);
  std::int64_t last_setup = now_ns();
  run_interleaved(phases, args.trace ? 0.9 * S : S, [&] {
    host.sample();
    // One more set-up sample per second of run.
    if (!args.smoke && now_ns() - last_setup > 1'000'000'000) {
      build_fixture();
      last_setup = now_ns();
    }
  });

  std::vector<double> lat = p1.trial_ms;
  std::sort(lat.begin(), lat.end());
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const Phase* p : phases) {
    attempted += p->trials;
    failed += p->failed;
  }

  if (!args.trace) {
    std::printf("workload %s seed %llu: jobs 1 %zu batches / %zu trials, "
                "jobs %u %zu batches, %zu set-ups\n",
                wl.name, static_cast<unsigned long long>(args.seed),
                p1.batch_rates.size(), lat.size(), jobs_par,
                pn.batch_rates.size(), setup_s.size());
    // Times as the reference host would show them; the raw figures are
    // printed too.
    const double slow = host.slowdown();
    std::printf("host slowdown %.4f (compute probe %.4g ns, memory probe "
                "%.4g ns); unscaled: trials_per_s %.6g, trials_per_s_par "
                "%.6g, trial_p50_ms %.6g, setup_s %.6g\n",
                slow, host.compute_ns(), host.memory_ns(), p1.rate(),
                pn.rate(), percentile(lat, 0.50), median(setup_s));
    metrics = {
        {"trials_per_s", p1.rate() * slow, "1/s"},
        {"trials_per_s_par", pn.rate() * slow, "1/s"},
        {"trial_p50_ms", percentile(lat, 0.50) / slow, "ms"},
        {"setup_s", median(setup_s) / slow, "s"},
        // The probe's buffer is resident throughout; it is not the
        // program's memory.
        {"peak_rss_mb",
         peak_rss_mb() -
             static_cast<double>(perfbench::HostSpeed::kBufferBytes) /
                 (1 << 20),
         "MB"},
    };
  } else {
    for (std::size_t k = 0; k < std::min(p1.results.size(), pt.results.size());
         ++k) {
      gate.check(wl.name, "traced vs untraced batch " + std::to_string(k),
                 p1.results[k], pt.results[k]);
    }

    // Span self times, per layer, as shares of trial time.
    const std::vector<perfbench::LayerTotals> layers =
        perfbench::summarize(log.spans());
    std::map<std::string, perfbench::LayerTotals> by;
    for (const auto& t : layers) by[t.name] = t;
    const perfbench::LayerTotals& trial = by["trial"];
    const double trials = static_cast<double>(trial.calls);
    double covered = 0;
    for (const auto& t : layers) {
      if (t.name != "trial") covered += t.self_ns;
    }
    auto share = [&](const char* n) {
      return ratio(by[n].self_ns, trial.total_ns);
    };
    auto us = [&](const char* n) {
      return 1e-3 * ratio(by[n].self_ns, static_cast<double>(by[n].calls));
    };
    const perfbench::LayerCounters& c = counters;
    const double tc = static_cast<double>(c.trials);

    // Probes, on this workload's own fixture.
    const mavr::toolchain::HexImage hex =
        mavr::toolchain::intel_hex_decode(fx.container_hex);
    const mavr::defense::Container container =
        mavr::defense::parse_container(hex.data);
    const double probe_s = args.smoke ? 0 : 0.02 * S;  // five probes
    mavr::support::Rng probe_rng(args.seed);
    const double crc_us = probe_us(probe_s, [&] {
      return mavr::support::crc32_ieee(container.image);
    });
    const double hex_us = probe_us(probe_s, [&] {
      return mavr::toolchain::intel_hex_decode(fx.container_hex).data.size();
    });
    const double parse_us = probe_us(probe_s, [&] {
      return mavr::defense::parse_container(hex.data).image.size();
    });
    const double rand_us = probe_us(probe_s, [&] {
      return mavr::defense::randomize_image(container.image, container.blob,
                                            probe_rng)
          .image.size();
    });
    mavr::detect::Engine probe_engine;
    const double rebuild_us = probe_us(probe_s, [&] {
      probe_engine.rebuild(container.image, container.blob.text_end);
      return std::uint64_t{1};
    });

    const double rate1 = p1.rate();
    const double rateN = pn.rate();
    const double mean1 =
        ratio(p1.trial_ns, static_cast<double>(p1.trial_ms.size()));
    const double meanN =
        ratio(pn.trial_ns, static_cast<double>(pn.trial_ms.size()));
    metrics = {
        {"avr.run.share", share("avr.run"), "fraction"},
        {"avr.run.mcycles_per_s",
         ratio(by["avr.run"].cycles, 1e-3 * by["avr.run"].self_ns),
         "Mcycles/s"},
        {"avr.tier.block_instr_frac",
         ratio(static_cast<double>(c.block_instructions),
               static_cast<double>(c.instructions)),
         "fraction"},
        {"avr.tier.translations_per_trial",
         ratio(static_cast<double>(c.translations), tc), "count"},
        {"avr.tier.side_exits_per_trial",
         ratio(static_cast<double>(c.side_exits), tc), "count"},
        {"avr.tier.interp_steps_per_trial",
         ratio(static_cast<double>(c.interp_steps), tc), "count"},
        {"defense.boot.us", us("defense.boot"), "us"},
        {"defense.boot.share", share("defense.boot"), "fraction"},
        {"defense.boot.calls_per_trial",
         ratio(static_cast<double>(by["defense.boot"].calls), trials), "count"},
        {"defense.service.us", us("defense.service"), "us"},
        {"defense.service.share", share("defense.service"), "fraction"},
        {"defense.reflash_per_trial",
         ratio(static_cast<double>(c.reflashes), tc), "count"},
        {"defense.page_retries_per_trial",
         ratio(static_cast<double>(c.page_retries), tc), "count"},
        {"defense.page_ok_frac",
         ratio(static_cast<double>(c.pages_placed),
               static_cast<double>(c.pages_placed + c.page_retries)),
         "fraction"},
        {"toolchain.upload.us", us("toolchain.upload"), "us"},
        {"toolchain.upload.share", share("toolchain.upload"), "fraction"},
        {"sim.board_new.us", us("sim.board_new"), "us"},
        {"sim.board_new.share", share("sim.board_new"), "fraction"},
        {"sim.board_new.alloc_kb",
         ratio(by["sim.board_new"].alloc_bytes,
               1024.0 * static_cast<double>(by["sim.board_new"].calls)),
         "KiB"},
        {"sim.deliver.us", us("sim.deliver"), "us"},
        {"attack.payload.us", us("attack.payload"), "us"},
        {"detect.trips_per_trial",
         ratio(static_cast<double>(c.detector_trips), tc), "count"},
        {"campaign.par_efficiency", ratio(rateN, jobs_par * rate1), "fraction"},
        {"campaign.trial_inflation_par", ratio(meanN, mean1), "ratio"},
        {"campaign.overhead_frac", 1.0 - ratio(pn.trial_ns, pn.pool_ns),
         "fraction"},
        {"campaign.fail_frac",
         ratio(static_cast<double>(failed), static_cast<double>(attempted)),
         "fraction"},
        {"trial.p99_ms", percentile(lat, 0.99), "ms"},
        {"trial.alloc_kb", ratio(trial.alloc_bytes, 1024.0 * trials), "KiB"},
        {"trial.span_share_sum", ratio(covered, trial.total_ns), "fraction"},
        {"trace.overhead_frac", 1.0 - ratio(pt.rate(), rate1),
         "fraction"},
        {"support.crc32.mb_per_s",
         ratio(static_cast<double>(container.image.size()), crc_us), "MB/s"},
        {"toolchain.hex_decode.us", hex_us, "us"},
        {"defense.parse_container.us", parse_us, "us"},
        {"defense.randomize_image.us", rand_us, "us"},
        {"detect.rebuild.us", rebuild_us, "us"},
        {"host.slowdown", host.slowdown(), "ratio"},
    };
    std::printf("workload %s seed %llu (traced): %llu traced trials, "
                "%zu spans; jobs 1 %zu batches, jobs %u %zu batches\n",
                wl.name, static_cast<unsigned long long>(args.seed),
                static_cast<unsigned long long>(c.trials), log.spans().size(),
                p1.batch_rates.size(), jobs_par, pn.batch_rates.size());

    std::error_code ec;
    std::filesystem::create_directories(args.out_dir, ec);
    const std::string spans_path =
        args.out_dir + "/spans-" + wl.name + ".tsv";
    if (!perfbench::write_spans(log.spans(), spans_path)) {
      std::fprintf(stderr, "campaign_bench: cannot write %s\n",
                   spans_path.c_str());
      return 1;
    }
  }

  for (const std::string& e : gate.errors) {
    std::fprintf(stderr, "campaign_bench: MISMATCH %s\n", e.c_str());
  }
  const bool correct = gate.errors.empty() && failed == 0;
  print_result(correct, std::max<std::uint64_t>(attempted, 1), failed,
               metrics);
  return correct ? 0 : 1;
}
