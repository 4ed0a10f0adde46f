// Observability layer tests: Tracer hook plumbing in the interpreter, the
// ring-buffer execution trace with its exports, edge-triggered watchpoints
// (including the V2 stealthy-pivot detection from the paper §IV-C), the
// per-function profiler and the bundled Session.
#include <gtest/gtest.h>

#include <vector>

#include "attack/attacks.hpp"
#include "firmware/generator.hpp"
#include "firmware/profile.hpp"
#include "sim/board.hpp"
#include "sim/ground.hpp"
#include "toolchain/encode.hpp"
#include "trace/events.hpp"
#include "trace/multi.hpp"
#include "trace/profiler.hpp"
#include "trace/session.hpp"
#include "trace/watchpoints.hpp"

namespace mavr {
namespace {

using avr::Cpu;
using avr::Op;
using namespace mavr::toolchain;

trace::Event ev(trace::EventKind kind, std::uint64_t cycle) {
  trace::Event e;
  e.kind = kind;
  e.cycle = cycle;
  return e;
}

TEST(ExecutionTrace, RingEvictsOldestAndCounts) {
  trace::ExecutionTrace trace(4, trace::kAllEvents);
  for (std::uint64_t c = 0; c < 6; ++c) {
    trace.record(ev(trace::EventKind::Call, c));
  }
  EXPECT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace.total_recorded(), 6u);
  EXPECT_EQ(trace.dropped(), 2u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(trace.at(i).cycle, i + 2);  // oldest two evicted
  }
  trace.clear();
  EXPECT_EQ(trace.size(), 0u);
}

TEST(ExecutionTrace, MaskFiltersKinds) {
  trace::ExecutionTrace trace(8, trace::mask_of(trace::EventKind::Call));
  trace.record(ev(trace::EventKind::Ret, 1));
  trace.record(ev(trace::EventKind::Call, 2));
  trace.record(ev(trace::EventKind::Load, 3));
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace.at(0).kind, trace::EventKind::Call);
  // The default mask excludes the per-instruction firehose.
  EXPECT_EQ(trace::kDefaultMask & trace::mask_of(trace::EventKind::Retire), 0u);
  EXPECT_EQ(trace::kDefaultMask & trace::mask_of(trace::EventKind::Load), 0u);
  EXPECT_NE(trace::kDefaultMask & trace::mask_of(trace::EventKind::Ret), 0u);
}

TEST(ExecutionTrace, JsonlAndCsvExports) {
  trace::ExecutionTrace trace(8, trace::kAllEvents);
  trace::Event e = ev(trace::EventKind::Ret, 42);
  e.pc_words = 7;
  e.a = 0x15D64;   // masked target
  e.b = 0x35D64;   // raw popped value: wrapped
  trace.record(e);
  const std::string jsonl = trace.jsonl();
  EXPECT_NE(jsonl.find("\"kind\":\"ret\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"cycle\":42"), std::string::npos);
  EXPECT_NE(jsonl.find("\"wrapped\":true"), std::string::npos);
  const std::string csv = trace.csv();
  EXPECT_EQ(csv.rfind("kind,cycle,pc_words,op,a,b\n", 0), 0u);
  EXPECT_NE(csv.find("ret,42,7"), std::string::npos);
}

// Records raw hook invocations straight off the Cpu, independent of any
// concrete sink — tests the interpreter-side plumbing.
struct HookLog : avr::Tracer {
  struct CallEdge {
    std::uint32_t from, to, ret;
  };
  struct RetEdge {
    std::uint32_t from, to, raw;
    bool reti;
  };
  std::vector<CallEdge> calls;
  std::vector<RetEdge> rets;
  std::vector<std::pair<std::uint16_t, std::uint16_t>> sp_changes;
  std::uint64_t retired = 0;

  void on_retire(const Cpu&, std::uint32_t, const avr::Instr&,
                 std::uint32_t) override {
    ++retired;
  }
  void on_call(const Cpu&, std::uint32_t from, std::uint32_t to,
               std::uint32_t ret) override {
    calls.push_back({from, to, ret});
  }
  void on_ret(const Cpu&, std::uint32_t from, std::uint32_t to,
              std::uint32_t raw, bool reti) override {
    rets.push_back({from, to, raw, reti});
  }
  void on_sp_change(const Cpu&, std::uint16_t old_sp,
                    std::uint16_t new_sp) override {
    sp_changes.emplace_back(old_sp, new_sp);
  }
};

class TracerTest : public ::testing::Test {
 protected:
  TracerTest() : cpu_(avr::atmega2560()) {}

  void load(std::initializer_list<std::uint16_t> words) {
    support::Bytes bytes;
    for (std::uint16_t w : words) {
      bytes.push_back(static_cast<std::uint8_t>(w & 0xFF));
      bytes.push_back(static_cast<std::uint8_t>(w >> 8));
    }
    cpu_.flash().erase();
    cpu_.flash().program(bytes);
    cpu_.reset();
  }

  Cpu cpu_;
};

TEST_F(TracerTest, CallAndRetEdgesCarryExactAddresses) {
  load({enc_rel_jump(Op::Rcall, 2),   // 0: call word 3
        0x0000,                        // 1: return lands here
        enc_no_operand(Op::Break),     // 2
        enc_no_operand(Op::Ret)});     // 3: callee
  HookLog log;
  cpu_.set_tracer(&log);
  cpu_.run(100);
  ASSERT_EQ(log.calls.size(), 1u);
  EXPECT_EQ(log.calls[0].from, 0u);
  EXPECT_EQ(log.calls[0].to, 3u);
  EXPECT_EQ(log.calls[0].ret, 1u);
  ASSERT_EQ(log.rets.size(), 1u);
  EXPECT_EQ(log.rets[0].from, 3u);
  EXPECT_EQ(log.rets[0].to, 1u);
  EXPECT_EQ(log.rets[0].raw, 1u);
  EXPECT_FALSE(log.rets[0].reti);
  // The 3-byte call frame: SP dipped by 3 and came back.
  ASSERT_EQ(log.sp_changes.size(), 2u);
  EXPECT_EQ(log.sp_changes[0].first - log.sp_changes[0].second, 3);
  EXPECT_EQ(log.sp_changes[1].second, log.sp_changes[0].first);
  EXPECT_GT(log.retired, 0u);
}

TEST_F(TracerTest, TracedAndUntracedRunsAgree) {
  // The kTraced=true interpreter instantiation must retire the same
  // instruction stream with the same timing as the untraced one.
  const auto program = {enc_imm(Op::Ldi, 24, 0x10), enc_imm(Op::Ldi, 25, 3),
                        enc_two_reg(Op::Add, 24, 25),
                        enc_rel_jump(Op::Rcall, 0),
                        enc_no_operand(Op::Break), enc_no_operand(Op::Ret)};
  load(program);
  const std::uint64_t untraced_cycles = cpu_.run(1000);
  const std::uint8_t untraced_r24 = cpu_.reg(24);

  load(program);
  HookLog log;
  cpu_.set_tracer(&log);
  EXPECT_EQ(cpu_.run(1000), untraced_cycles);
  EXPECT_EQ(cpu_.reg(24), untraced_r24);
  EXPECT_EQ(cpu_.tracer(), &log);
  cpu_.set_tracer(nullptr);
  EXPECT_EQ(cpu_.tracer(), nullptr);
}

TEST_F(TracerTest, MultiTracerFansOutInOrder) {
  load({enc_rel_jump(Op::Rcall, 0), enc_no_operand(Op::Break),
        enc_no_operand(Op::Ret)});
  HookLog a, b;
  trace::MultiTracer mux;
  mux.add(&a);
  mux.add(&b);
  EXPECT_EQ(mux.size(), 2u);
  cpu_.set_tracer(&mux);
  cpu_.run(100);
  EXPECT_EQ(a.calls.size(), 1u);
  EXPECT_EQ(b.calls.size(), 1u);
  EXPECT_EQ(a.retired, b.retired);
  mux.remove(&b);
  EXPECT_EQ(mux.size(), 1u);
}

TEST(Watchpoints, OutsideModeIsEdgeTriggered) {
  Cpu cpu(avr::atmega2560());
  trace::Watchpoints watch;
  const int id = watch.watch_sp(0x2100, 0x21FF, trace::SpWatchMode::Outside,
                                "stack-floor");
  // Leave the region: one hit for the whole excursion, however deep.
  watch.on_sp_change(cpu, 0x2100, 0x20FF);
  watch.on_sp_change(cpu, 0x20FF, 0x20F0);
  watch.on_sp_change(cpu, 0x20F0, 0x20E0);
  EXPECT_EQ(watch.hit_count(id), 1u);
  // Come back inside (re-arms), leave again: second hit.
  watch.on_sp_change(cpu, 0x20E0, 0x2150);
  watch.on_sp_change(cpu, 0x2150, 0x2000);
  EXPECT_EQ(watch.hit_count(id), 2u);
  ASSERT_EQ(watch.hits().size(), 2u);
  EXPECT_EQ(watch.hits()[0].value, 0x20FFu);
  EXPECT_EQ(watch.hits()[0].label, "stack-floor");
}

TEST(Watchpoints, InsideModeFlagsForbiddenZoneAndFeedsSink) {
  Cpu cpu(avr::atmega2560());
  trace::Watchpoints watch;
  trace::ExecutionTrace sink(8, trace::kAllEvents);
  watch.set_sink(&sink);
  const int id =
      watch.watch_sp(0x216D, 0x219D, trace::SpWatchMode::Inside, "buffer");
  watch.on_sp_change(cpu, 0x21D0, 0x216C);  // pivot value: still outside
  EXPECT_EQ(watch.hit_count(id), 0u);
  watch.on_sp_change(cpu, 0x216C, 0x216D);  // first pop enters the zone
  EXPECT_EQ(watch.hit_count(id), 1u);
  watch.on_sp_change(cpu, 0x216D, 0x2170);  // deeper in: same excursion
  EXPECT_EQ(watch.hit_count(id), 1u);
  ASSERT_EQ(sink.size(), 1u);
  EXPECT_EQ(sink.at(0).kind, trace::EventKind::WatchHit);
  EXPECT_EQ(sink.at(0).a, static_cast<std::uint32_t>(id));
  EXPECT_EQ(sink.at(0).b, 0x216Du);
}

TEST(Watchpoints, RangeWatchesAreLevelTriggeredPerAccess) {
  Cpu cpu(avr::atmega2560());
  trace::Watchpoints watch;
  const int wr = watch.watch_write(0x0400, 0x04FF, "cal-table");
  const int rd = watch.watch_read(0x0200, 0x02FF, "secrets");
  watch.on_store(cpu, 0x0410, 0x11);
  watch.on_store(cpu, 0x0410, 0x22);  // same address: counts again
  watch.on_store(cpu, 0x0500, 0x33);  // outside
  watch.on_load(cpu, 0x0210, 0x44);
  watch.on_load(cpu, 0x0410, 0x55);  // read of a write-watched range: no hit
  EXPECT_EQ(watch.hit_count(wr), 2u);
  EXPECT_EQ(watch.hit_count(rd), 1u);
}

TEST(Watchpoints, TracksSpWatermarks) {
  Cpu cpu(avr::atmega2560());
  trace::Watchpoints watch;
  watch.on_sp_change(cpu, 0x21FF, 0x21FC);
  watch.on_sp_change(cpu, 0x21FC, 0x21D0);
  watch.on_sp_change(cpu, 0x21D0, 0x21FF);
  EXPECT_EQ(watch.sp_min(), 0x21D0);
  EXPECT_EQ(watch.sp_max(), 0x21FF);
}

// --- Full-firmware integration ----------------------------------------------

const firmware::Firmware& vuln_fw() {
  static firmware::Firmware fw = firmware::generate(
      firmware::testapp(/*vulnerable=*/true), toolchain::ToolchainOptions::mavr());
  return fw;
}

TEST(Profiler, AttributesCyclesToFirmwareFunctions) {
  sim::Board board;
  board.flash_image(vuln_fw().image.bytes);
  board.set_gyro(0, 120);
  board.run_cycles(100'000);  // boot untraced
  trace::Profiler profiler(vuln_fw().image);
  board.cpu().set_tracer(&profiler);
  board.run_cycles(500'000);
  board.cpu().set_tracer(nullptr);

  EXPECT_GT(profiler.total_cycles(), 400'000u);
  const auto* loop = profiler.lookup("sens_read");
  ASSERT_NE(loop, nullptr);
  EXPECT_GT(loop->cycles, 0u);
  EXPECT_GT(loop->instructions, 0u);
  EXPECT_GT(loop->calls, 0u);
  // Benign steady state never leaves the symbol table for long.
  EXPECT_LT(profiler.unattributed_cycles(), profiler.total_cycles() / 100);
  const auto ranked = profiler.by_cycles();
  ASSERT_GT(ranked.size(), 1u);
  EXPECT_GE(ranked[0].cycles, ranked[1].cycles);
  EXPECT_NE(profiler.report(5).find("sens_read"), std::string::npos);
}

TEST(Session, BenignRunStaysOutOfThePacketBuffer) {
  sim::Board board;
  board.flash_image(vuln_fw().image.bytes);
  board.set_gyro(0, 120);
  board.run_cycles(300'000);

  const attack::AttackPlan plan = attack::analyze(vuln_fw().image);
  trace::Session session(vuln_fw().image);
  const int id = session.watchpoints().watch_sp(
      plan.frame.buffer_addr,
      static_cast<std::uint16_t>(plan.frame.buffer_addr +
                                 firmware::kVulnBufBytes / 2),
      trace::SpWatchMode::Inside, "sp-in-packet-buffer");
  session.attach(board.cpu(), &board.telemetry());

  sim::GroundStation gcs(board);
  gcs.send_heartbeat();
  board.run_cycles(2'000'000);
  gcs.poll();

  EXPECT_FALSE(board.crashed());
  EXPECT_EQ(session.watchpoints().hit_count(id), 0u);
  // SP never enters the packet payload buffer on a benign run.
  EXPECT_GT(session.watchpoints().sp_min(), plan.frame.buffer_addr +
                                                firmware::kVulnBufBytes / 2);
  // The tap reassembled traffic in both directions on one timeline.
  bool saw_tx = false, saw_rx = false;
  for (const auto& rec : session.packets()) {
    (rec.to_host ? saw_tx : saw_rx) = true;
  }
  EXPECT_TRUE(saw_tx);
  EXPECT_TRUE(saw_rx);
  session.detach();
  EXPECT_EQ(board.cpu().tracer(), nullptr);
}

TEST(Session, V2StealthyAttackFiresSpWatchpointExactlyOnce) {
  // Acceptance scenario from the paper §IV-C: the stk_move pivot parks SP
  // at buffer_addr-1 (numerically identical to the legitimate frame
  // bottom), then the gadget chain pops with SP *inside* the PARAM_SET
  // payload buffer. The forbidden-zone watch must fire exactly once —
  // and the board keeps flying, which is what makes the attack stealthy.
  sim::Board board;
  board.flash_image(vuln_fw().image.bytes);
  board.set_gyro(0, 120);
  board.run_cycles(300'000);

  const attack::AttackPlan plan = attack::analyze(vuln_fw().image);
  trace::Session::Options opts;
  opts.trace_capacity = std::size_t{1} << 20;  // keep the whole 4M-cycle run
  trace::Session session(vuln_fw().image, opts);
  const int id = session.watchpoints().watch_sp(
      plan.frame.buffer_addr,
      static_cast<std::uint16_t>(plan.frame.buffer_addr +
                                 firmware::kVulnBufBytes / 2),
      trace::SpWatchMode::Inside, "sp-in-packet-buffer");
  session.attach(board.cpu(), &board.telemetry());

  sim::GroundStation gcs(board);
  gcs.send_heartbeat();
  const attack::Write3 write{plan.gyro_cal_addr, {0x11, 0x22, 0x33}};
  gcs.send_raw_param_set(plan.builder().v2_payload({write}));
  board.run_cycles(4'000'000);
  gcs.poll();

  EXPECT_FALSE(board.crashed()) << "V2 is the stealthy variant";
  ASSERT_EQ(session.watchpoints().hit_count(id), 1u);
  const trace::WatchHit& hit = session.watchpoints().hits()[0];
  EXPECT_EQ(hit.value, plan.frame.buffer_addr);  // first pop enters at lo
  EXPECT_GT(hit.cycle, 300'000u);
  // The hit also landed in the ring for offline analysis.
  bool in_trace = false;
  for (std::size_t i = 0; i < session.trace().size(); ++i) {
    const trace::Event& e = session.trace().at(i);
    if (e.kind == trace::EventKind::WatchHit &&
        e.a == static_cast<std::uint32_t>(id)) {
      in_trace = true;
    }
  }
  EXPECT_TRUE(in_trace);
  EXPECT_NE(session.trace().jsonl().find("watch_hit"), std::string::npos);
}

}  // namespace
}  // namespace mavr
