// Board::power_on() equivalence: a board used for a full trial and then
// powered on must be indistinguishable from a freshly constructed one —
// per board, under a scripted boot plus V2 attack with the tier on and off,
// and per campaign, with three scenarios' trials interleaved on one
// worker thread.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <thread>
#include <vector>

#include "attack/attacks.hpp"
#include "avr/uart.hpp"
#include "campaign/export.hpp"
#include "campaign/scenarios.hpp"
#include "defense/external_flash.hpp"
#include "defense/master.hpp"
#include "detect/engine.hpp"
#include "firmware/profile.hpp"
#include "sim/board.hpp"
#include "sim/ground.hpp"
#include "support/fault.hpp"
#include "support/rng.hpp"

namespace mavr {
namespace {

const campaign::SimFixture& fixture() {
  static const campaign::SimFixture fx =
      campaign::make_sim_fixture(firmware::testapp(/*vulnerable=*/true));
  return fx;
}

/// Everything a trial can observe of a board, plus the tier counters.
struct Observed {
  support::Bytes data;
  std::uint32_t pc = 0;
  std::uint16_t sp = 0;
  std::uint8_t sreg = 0;
  std::uint64_t cycles = 0;
  std::uint64_t retired = 0;
  std::uint64_t interrupts = 0;
  support::Bytes flash;
  std::uint32_t flash_write_cycles = 0;
  support::Bytes eeprom;
  std::array<std::vector<avr::OutputPort::Write>, 4> servos;
  std::uint64_t feed_last_write = 0;
  std::uint64_t timer_fires = 0;
  support::Bytes uart_tx;
  std::size_t uart_backlog = 0;
  std::uint64_t uart_underruns = 0;
  std::array<std::uint64_t, 9> tier{};
  bool operator==(const Observed&) const = default;
};

Observed observe(sim::Board& board) {
  const avr::Cpu& cpu = board.cpu();
  Observed o;
  o.data.assign(cpu.data().raw_data(),
                cpu.data().raw_data() + cpu.data().size());
  o.pc = cpu.pc();
  o.sp = cpu.sp();
  o.sreg = cpu.sreg();
  o.cycles = cpu.cycles();
  o.retired = cpu.instructions_retired();
  o.interrupts = cpu.interrupts_taken();
  o.flash = cpu.flash().dump();  // below the fuse: compares the real bits
  o.flash_write_cycles = board.flash_write_cycles();
  for (std::uint32_t a = 0; a < board.cpu().eeprom().size(); ++a) {
    o.eeprom.push_back(board.cpu().eeprom().read(a));
  }
  for (int i = 0; i < 4; ++i) o.servos[i] = board.servo(i).history();
  o.feed_last_write = board.feed_line().last_write_cycle();
  o.timer_fires = board.tick_timer().fires();
  o.uart_tx = board.telemetry().host_take_tx();
  o.uart_backlog = board.telemetry().rx_backlog();
  o.uart_underruns = board.telemetry().rx_underruns();
  const avr::TierStats& t = cpu.tier_stats();
  o.tier = {t.blocks_translated, t.invalidations, t.blocks_executed,
            t.block_instructions, t.side_exits, t.io_dispatches,
            t.self_loops, t.interp_steps, t.fused_pairs};
  return o;
}

struct CountingTap : avr::UartTap {
  void on_tx(std::uint64_t, std::uint8_t) override { ++events; }
  void on_rx(std::uint64_t, std::uint8_t) override { ++events; }
  void on_rx_underrun(std::uint64_t) override { ++events; }
  std::uint64_t events = 0;
};

/// Uses `board` for one full, messy trial and leaves it that way: a
/// detector armed, a fault plane attached, two reflashes, sensors set, an
/// EEPROM cell written, a UART backlog, servo history, the fuse set, a
/// trace hook and UART tap installed, the tier off, and the core parked in
/// the bootloader. The engine and the plane die here, so the board is left
/// holding pointers to dead objects — exactly what a campaign worker's
/// board holds between trials.
void dirty(sim::Board& board, std::uint64_t& hook_calls, CountingTap& tap) {
  const campaign::SimFixture& fx = fixture();
  defense::ExternalFlash flash;
  defense::MasterConfig mcfg;
  mcfg.seed = 77;
  defense::MasterProcessor master(flash, board, mcfg);
  detect::Engine engine;
  engine.arm(board.cpu());
  master.attach_detector(&engine);
  master.host_upload(fx.container);
  master.boot();
  board.set_gyro(0, 1234);
  board.set_acc(2, -77);
  board.cpu().eeprom().write(3, 0x42);
  board.run_cycles(500'000);
  ASSERT_FALSE(board.servo(0).history().empty());
  support::FaultPlane plane(support::FaultConfig::uniform(0.05),
                            support::Rng(5));
  flash.attach_faults(&plane);
  board.attach_faults(&plane);
  master.attach_faults(&plane);
  master.boot();  // a reflash under the plane
  board.telemetry().set_tap(&tap);
  board.telemetry().host_send(support::Bytes(400, 0x55));
  board.run_cycles(50'000);  // leaves most of the 400 bytes queued
  board.set_trace_hook([&hook_calls](const avr::Cpu&) { ++hook_calls; });
  board.run_cycles(10'000);
  board.set_readout_protection();
  board.cpu().set_exec_tier(false);
  board.bootloader_enter();
  ASSERT_GT(board.telemetry().rx_backlog(), 0u);
  ASSERT_GT(board.cpu().cycles(), 0u);
}

/// Scripted flight: boot behind a randomizing master, cruise, take a V2
/// payload built from the stock binary, service the watchdog, then a
/// scheduled re-randomization and more flight — at least two reflashes
/// after power-on, so stale decodes or translations would show.
Observed fly(sim::Board& board, bool tier) {
  const campaign::SimFixture& fx = fixture();
  board.cpu().set_exec_tier(tier);
  defense::ExternalFlash flash;
  defense::MasterConfig mcfg;
  mcfg.seed = 99;
  mcfg.watchdog_timeout_cycles = 400'000;
  defense::MasterProcessor master(flash, board, mcfg);
  master.host_upload(fx.container);
  master.boot();
  board.set_gyro(1, 321);
  board.run_cycles(400'000);
  attack::AttackPlan guess = fx.plan;
  guess.stk = fx.usable_stk.front();
  const attack::Write3 write{fx.plan.gyro_cal_addr, {0xD1, 0x07, 0x00}};
  sim::GroundStation gcs(board);
  gcs.send_raw_param_set(guess.builder().v2_payload({write}));
  for (int s = 0; s < 20; ++s) {
    board.run_cycles(100'000);
    master.service();
  }
  master.boot();
  board.run_cycles(300'000);
  return observe(board);
}

TEST(PowerOn, UsedBoardFliesLikeAFreshOne) {
  for (const bool tier : {true, false}) {
    SCOPED_TRACE(tier ? "tier on" : "tier off");
    sim::Board fresh;
    const Observed want = fly(fresh, tier);

    sim::Board reused;
    std::uint64_t hook_calls = 0;
    CountingTap tap;
    dirty(reused, hook_calls, tap);
    const std::uint64_t hooks_before = hook_calls;
    const std::uint64_t taps_before = tap.events;
    reused.power_on();
    EXPECT_FALSE(reused.in_bootloader());
    EXPECT_FALSE(reused.readout_protected());
    EXPECT_EQ(reused.cpu().tracer(), nullptr);
    EXPECT_EQ(reused.telemetry().tap(), nullptr);
    EXPECT_TRUE(reused.cpu().exec_tier());

    const Observed got = fly(reused, tier);
    EXPECT_EQ(hook_calls, hooks_before) << "trace hook survived power_on";
    EXPECT_EQ(tap.events, taps_before) << "UART tap survived power_on";
    EXPECT_EQ(std::memcmp(got.data.data(), want.data.data(),
                          want.data.size()),
              0);
    EXPECT_EQ(got.pc, want.pc);
    EXPECT_EQ(got.sp, want.sp);
    EXPECT_EQ(got.sreg, want.sreg);
    EXPECT_EQ(got.cycles, want.cycles);
    EXPECT_EQ(got.retired, want.retired);
    EXPECT_EQ(got.interrupts, want.interrupts);
    EXPECT_EQ(got.flash, want.flash);
    EXPECT_EQ(got.flash_write_cycles, want.flash_write_cycles);
    EXPECT_EQ(got.eeprom, want.eeprom);
    EXPECT_EQ(got.servos, want.servos);
    EXPECT_EQ(got.feed_last_write, want.feed_last_write);
    EXPECT_EQ(got.timer_fires, want.timer_fires);
    EXPECT_EQ(got.uart_tx, want.uart_tx);
    EXPECT_EQ(got.uart_backlog, want.uart_backlog);
    EXPECT_EQ(got.uart_underruns, want.uart_underruns);
    EXPECT_EQ(got.tier, want.tier);
    EXPECT_GT(want.retired, 0u);

    // And again on the same board, straight after a clean flight.
    reused.power_on();
    EXPECT_TRUE(fly(reused, tier) == want);
  }
}

TEST(PowerOn, PoweredOnBoardEqualsFreshBeforeAnyRun) {
  sim::Board fresh;
  sim::Board reused;
  std::uint64_t hook_calls = 0;
  CountingTap tap;
  dirty(reused, hook_calls, tap);
  reused.power_on();
  EXPECT_TRUE(observe(reused) == observe(fresh));
  EXPECT_EQ(reused.flash_write_cycles(), 0u);
  EXPECT_FALSE(reused.tick_timer().pending());
  EXPECT_EQ(reused.cpu().state(), avr::CpuState::Running);
}

// Campaign level: every trial of one scenario runs on the worker board
// right after a trial of each of the other two, and the aggregate must be
// bit-identical to the same campaign run alone on a fresh thread (whose
// board has only ever seen its own scenario).
TEST(PowerOn, InterleavedScenariosMatchCampaignsRunAlone) {
  const campaign::SimFixture& fx = fixture();
  campaign::CampaignConfig v2;
  v2.scenario = campaign::Scenario::kV2;
  v2.trials = 6;
  v2.seed = 21;
  v2.jobs = 1;
  v2.attack_slices = 20;
  campaign::CampaignConfig fault = v2;
  fault.scenario = campaign::Scenario::kFaultSweep;
  fault.fault_rate = 0.05;
  campaign::CampaignConfig analyze = v2;
  analyze.scenario = campaign::Scenario::kAnalyzeSweep;
  analyze.detect_attack = campaign::DetectAttack::kV2;
  const std::array<campaign::CampaignConfig, 3> configs = {v2, fault,
                                                           analyze};

  std::array<std::string, 3> alone;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    std::thread([&, i] {
      alone[i] = campaign::to_json(
          configs[i], campaign::run_campaign(configs[i], fx));
    }).join();
  }

  std::array<campaign::TrialFn, 3> fns;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    fns[i] = campaign::make_trial_fn(configs[i], &fx);
  }
  std::array<std::string, 3> interleaved;
  std::thread([&] {
    for (std::size_t i = 0; i < configs.size(); ++i) {
      const campaign::TrialFn mixed = [&, i](std::uint64_t trial,
                                             support::Rng& rng) {
        for (std::size_t j = 1; j < configs.size(); ++j) {
          support::Rng other(trial * 31 + j);
          fns[(i + j) % configs.size()](trial, other);
        }
        return fns[i](trial, rng);
      };
      interleaved[i] =
          campaign::to_json(configs[i], campaign::run_trials(configs[i], mixed));
    }
  }).join();

  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(interleaved[i], alone[i])
        << campaign::scenario_name(configs[i].scenario);
  }
}

}  // namespace
}  // namespace mavr
