// mavr-trace — run a generated firmware on the simulated board under the
// observability layer and emit a per-function cycle profile, a JSONL (or
// CSV) execution trace, and watchpoint verdicts.
//
//   mavr-trace [--profile testapp|arduplane|arducopter|ardurover]
//              [--cycles N] [--events flow|default|all] [--capacity N]
//              [--trace-out FILE] [--csv-out FILE] [--top N]
//              [--watch-sp LO:HI[:inside]] [--attack-v2]
//
// --attack-v2 boots the vulnerable testapp, arms the forbidden-zone SP
// watch on the PARAM_SET packet buffer and launches the paper's stealthy
// V2 attack, demonstrating the exactly-once pivot detection.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "attack/attacks.hpp"
#include "firmware/generator.hpp"
#include "firmware/profile.hpp"
#include "sim/board.hpp"
#include "sim/ground.hpp"
#include "support/parse.hpp"
#include "trace/session.hpp"

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: mavr-trace [--profile testapp|arduplane|arducopter|ardurover]\n"
      "                  [--cycles N] [--events flow|default|all]\n"
      "                  [--capacity N] [--trace-out FILE] [--csv-out FILE]\n"
      "                  [--top N] [--watch-sp LO:HI[:inside]] [--attack-v2]\n");
  return 2;
}

int bad_value(const char* flag, const char* value) {
  std::fprintf(stderr, "invalid value for %s: '%s'\n", flag, value);
  return usage();
}

bool write_file(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << contents;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mavr;

  std::string profile_name = "testapp";
  std::string trace_out = "mavr-trace.jsonl";
  std::string csv_out;
  std::string events = "default";
  std::uint64_t cycles = 4'000'000;
  std::size_t capacity = std::size_t{1} << 16;
  std::size_t top = 20;
  bool attack_v2 = false;
  bool have_sp_watch = false;
  unsigned long sp_lo = 0, sp_hi = 0;
  bool sp_inside = false;

  for (int i = 1; i < argc; ++i) {
    const auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--profile") == 0) {
      profile_name = need_value("--profile");
    } else if (std::strcmp(argv[i], "--cycles") == 0) {
      const char* v = need_value("--cycles");
      const auto parsed = support::parse_u64(v);
      if (!parsed) return bad_value("--cycles", v);
      cycles = *parsed;
    } else if (std::strcmp(argv[i], "--events") == 0) {
      events = need_value("--events");
    } else if (std::strcmp(argv[i], "--capacity") == 0) {
      const char* v = need_value("--capacity");
      const auto parsed = support::parse_u64_in(v, 1, SIZE_MAX);
      if (!parsed) return bad_value("--capacity", v);
      capacity = static_cast<std::size_t>(*parsed);
    } else if (std::strcmp(argv[i], "--trace-out") == 0) {
      trace_out = need_value("--trace-out");
    } else if (std::strcmp(argv[i], "--csv-out") == 0) {
      csv_out = need_value("--csv-out");
    } else if (std::strcmp(argv[i], "--top") == 0) {
      const char* v = need_value("--top");
      const auto parsed = support::parse_u64_in(v, 0, SIZE_MAX);
      if (!parsed) return bad_value("--top", v);
      top = static_cast<std::size_t>(*parsed);
    } else if (std::strcmp(argv[i], "--watch-sp") == 0) {
      char mode[16] = {};
      const char* spec = need_value("--watch-sp");
      const int n = std::sscanf(spec, "%li:%li:%15s", &sp_lo, &sp_hi, mode);
      if (n < 2) {
        std::fprintf(stderr, "bad --watch-sp spec %s\n", spec);
        return 2;
      }
      sp_inside = (n == 3 && std::strcmp(mode, "inside") == 0);
      have_sp_watch = true;
    } else if (std::strcmp(argv[i], "--attack-v2") == 0) {
      attack_v2 = true;
    } else {
      return usage();
    }
  }

  firmware::AppProfile profile;
  if (profile_name == "testapp") {
    profile = firmware::testapp(/*vulnerable=*/attack_v2);
  } else if (profile_name == "arduplane") {
    profile = firmware::arduplane();
  } else if (profile_name == "arducopter") {
    profile = firmware::arducopter();
  } else if (profile_name == "ardurover") {
    profile = firmware::ardurover();
  } else {
    std::fprintf(stderr, "unknown profile %s\n", profile_name.c_str());
    return 2;
  }

  const firmware::Firmware fw =
      firmware::generate(profile, toolchain::ToolchainOptions::mavr());
  std::printf("firmware %s: %u bytes, %zu functions\n",
              fw.profile.name.c_str(), fw.image.size_bytes(),
              fw.image.function_count());

  sim::Board board;
  board.flash_image(fw.image.bytes);
  board.set_gyro(0, 120);
  board.run_cycles(300'000);  // boot without tracing: profile steady state

  trace::Session::Options opts;
  opts.trace_capacity = capacity;
  if (events == "all") {
    opts.trace_mask = trace::kAllEvents;
  } else if (events == "flow") {
    opts.trace_mask = trace::mask_of(trace::EventKind::Call) |
                      trace::mask_of(trace::EventKind::Ret) |
                      trace::mask_of(trace::EventKind::Irq) |
                      trace::mask_of(trace::EventKind::Fault) |
                      trace::mask_of(trace::EventKind::WatchHit);
  } else if (events != "default") {
    std::fprintf(stderr, "unknown --events %s\n", events.c_str());
    return 2;
  }

  trace::Session session(fw.image, opts);
  if (have_sp_watch) {
    session.watchpoints().watch_sp(
        static_cast<std::uint16_t>(sp_lo), static_cast<std::uint16_t>(sp_hi),
        sp_inside ? trace::SpWatchMode::Inside : trace::SpWatchMode::Outside,
        "cli");
  }

  int sp_watch_id = 0;
  attack::AttackPlan plan;
  if (attack_v2) {
    plan = attack::analyze(fw.image);
    // The stk_move pivot parks SP at buffer_addr-1 — the same value the
    // legitimate prologue uses — but only the gadget chain then *pops with
    // SP inside the packet buffer*. Forbid that zone.
    sp_watch_id = session.watchpoints().watch_sp(
        plan.frame.buffer_addr,
        static_cast<std::uint16_t>(plan.frame.buffer_addr +
                                   firmware::kVulnBufBytes / 2),
        trace::SpWatchMode::Inside, "sp-in-packet-buffer");
  }

  session.attach(board.cpu(), &board.telemetry());
  sim::GroundStation gcs(board);
  gcs.send_heartbeat();

  if (attack_v2) {
    const attack::Write3 write{plan.gyro_cal_addr, {0x11, 0x22, 0x33}};
    gcs.send_raw_param_set(plan.builder().v2_payload({write}));
  }
  board.run_cycles(cycles);
  gcs.poll();
  session.detach();

  std::printf("\nper-function cycle profile (top %zu):\n%s\n", top,
              session.profiler()->report(top).c_str());
  std::printf("run: %llu cycles, %llu events recorded (%llu dropped by the "
              "ring), %zu MAVLink packets on the line, %llu UART underruns\n",
              static_cast<unsigned long long>(board.cpu().cycles()),
              static_cast<unsigned long long>(
                  session.trace().total_recorded()),
              static_cast<unsigned long long>(session.trace().dropped()),
              session.packets().size(),
              static_cast<unsigned long long>(session.uart_underruns()));
  std::printf("sp watermark: [0x%04X, 0x%04X]\n",
              session.watchpoints().sp_min(), session.watchpoints().sp_max());

  for (const trace::WatchHit& hit : session.watchpoints().hits()) {
    std::printf("WATCH HIT %s(#%d): value 0x%04X at pc word 0x%05X, cycle "
                "%llu\n",
                hit.label.c_str(), hit.watch_id, hit.value, hit.pc_words,
                static_cast<unsigned long long>(hit.cycle));
  }
  if (attack_v2) {
    const std::uint64_t hits =
        session.watchpoints().hit_count(sp_watch_id);
    std::printf("V2 stealthy attack: board %s, SP watchpoint fired %llu "
                "time(s)\n",
                board.crashed() ? "CRASHED" : "still flying",
                static_cast<unsigned long long>(hits));
  }

  if (!trace_out.empty()) {
    if (!write_file(trace_out, session.trace().jsonl())) {
      std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
      return 1;
    }
    std::printf("wrote JSONL trace: %s\n", trace_out.c_str());
  }
  if (!csv_out.empty()) {
    if (!write_file(csv_out, session.trace().csv())) {
      std::fprintf(stderr, "cannot write %s\n", csv_out.c_str());
      return 1;
    }
    std::printf("wrote CSV trace: %s\n", csv_out.c_str());
  }
  return 0;
}
