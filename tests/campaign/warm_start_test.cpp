// Warm start (DESIGN.md §8): a sweep trial that boots and then restores
// the post-warm-up snapshot must be the trial that boots and flies the
// warm-up. Held state by state — the core, the bus, every device and the
// engine right after the warm-up, on a board dirtied by an earlier trial
// against a new board — and then by flying the same attack on both, tier
// on and off. Campaign results cannot show a restore that drops state the
// attack never reads back; these comparisons can.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "campaign/scenarios.hpp"
#include "campaign/trial.hpp"
#include "detect/engine.hpp"
#include "sim/board.hpp"
#include "support/rng.hpp"

namespace mavr {
namespace {

using campaign::CampaignConfig;
using campaign::DetectAttack;
using campaign::Scenario;

const campaign::SimFixture& fixture() {
  static const campaign::SimFixture fx =
      campaign::make_sim_fixture(firmware::testapp(/*vulnerable=*/true));
  return fx;
}

CampaignConfig sweep(Scenario scenario, DetectAttack attack,
                     unsigned detectors) {
  CampaignConfig config;
  config.scenario = scenario;
  config.detect_attack = attack;
  config.detectors = detectors;
  config.seed = 7;
  return config;
}

support::Bytes eeprom_of(const avr::Cpu& cpu) {
  support::Bytes out;
  for (std::uint32_t a = 0; a < cpu.eeprom().size(); ++a) {
    out.push_back(cpu.eeprom().read(a));
  }
  return out;
}

void expect_same_port(const avr::OutputPort& got, const avr::OutputPort& want,
                      const std::string& name) {
  SCOPED_TRACE(name);
  EXPECT_EQ(got.value(), want.value());
  EXPECT_EQ(got.last_write_cycle(), want.last_write_cycle());
  EXPECT_EQ(got.write_count(), want.write_count());
  EXPECT_EQ(got.history(), want.history());
}

/// Every field a trial can reach, read through the objects' own accessors
/// rather than through save(), so a field save() and restore() both miss
/// still shows.
void expect_same_state(campaign::Rig& got, campaign::Rig& want) {
  const avr::Cpu& g = got.board.cpu();
  const avr::Cpu& w = want.board.cpu();
  ASSERT_EQ(g.data().size(), w.data().size());
  EXPECT_EQ(std::memcmp(g.data().raw_data(), w.data().raw_data(),
                        w.data().size()),
            0)
      << "data space";
  EXPECT_EQ(eeprom_of(g), eeprom_of(w));
  EXPECT_EQ(g.pc(), w.pc());
  EXPECT_EQ(g.sp(), w.sp());
  EXPECT_EQ(g.sreg(), w.sreg());
  EXPECT_EQ(g.cycles(), w.cycles());
  EXPECT_EQ(g.instructions_retired(), w.instructions_retired());
  EXPECT_EQ(g.interrupts_taken(), w.interrupts_taken());
  EXPECT_EQ(g.state(), w.state());
  EXPECT_TRUE(g.fault() == w.fault());
  EXPECT_EQ(g.last_ret_raw_words(), w.last_ret_raw_words());
  EXPECT_EQ(g.last_ret_wrapped(), w.last_ret_wrapped());

  EXPECT_EQ(g.io().now(), w.io().now());
  EXPECT_EQ(g.io().next_deadline(), w.io().next_deadline());
  EXPECT_EQ(g.io().irq_hint(), w.io().irq_hint());
  EXPECT_EQ(g.io().state().latch_shadow, w.io().state().latch_shadow);

  const avr::Uart::State& gu = got.board.telemetry().state();
  const avr::Uart::State& wu = want.board.telemetry().state();
  EXPECT_EQ(gu.rx_cursor, wu.rx_cursor);
  EXPECT_EQ(gu.rx_underruns, wu.rx_underruns);
  EXPECT_TRUE(gu.rx == wu.rx) << "UART receive queue";
  EXPECT_EQ(gu.tx, wu.tx) << "UART transmitted bytes";

  const avr::Timer& gt = got.board.tick_timer();
  const avr::Timer& wt = want.board.tick_timer();
  EXPECT_EQ(gt.pending(), wt.pending());
  EXPECT_EQ(gt.fires(), wt.fires());
  EXPECT_EQ(gt.next_event_cycles(), wt.next_event_cycles());

  for (int i = 0; i < 4; ++i) {
    expect_same_port(got.board.servo(i), want.board.servo(i),
                     "servo " + std::to_string(i));
  }
  expect_same_port(got.board.feed_line(), want.board.feed_line(), "feed");
  expect_same_port(got.board.led(), want.board.led(), "led");

  ASSERT_TRUE(got.engine && want.engine);
  const detect::Engine::State& ge = got.engine->state();
  const detect::Engine::State& we = want.engine->state();
  EXPECT_EQ(ge.shadow, we.shadow) << "shadow stack";
  EXPECT_TRUE(ge.frames == we.frames) << "live frames";
  EXPECT_TRUE(ge.freed == we.freed) << "freed frames";
  EXPECT_EQ(ge.freed_next, we.freed_next);
  EXPECT_EQ(ge.tripped, we.tripped);
  EXPECT_TRUE(ge.verdicts == we.verdicts) << "verdict log";
  EXPECT_EQ(ge.total_trips, we.total_trips);
}

void expect_same_result(const campaign::TrialResult& got,
                        const campaign::TrialResult& want) {
  EXPECT_EQ(got.success, want.success);
  EXPECT_EQ(got.detected, want.detected);
  EXPECT_EQ(got.degraded, want.degraded);
  EXPECT_EQ(got.detector_fired, want.detector_fired);
  EXPECT_EQ(got.attempts, want.attempts);
  EXPECT_EQ(got.startup_ms, want.startup_ms);
  EXPECT_EQ(got.ttd_cycles, want.ttd_cycles);
}

/// Leaves `board` as a campaign worker's board is left between trials: a
/// detect-sweep V2 trial flown on it to detection, which reflashes it.
void dirty(sim::Board& board) {
  const campaign::SimFixture& fx = fixture();
  const CampaignConfig config =
      sweep(Scenario::kDetectSweep, DetectAttack::kV2, detect::kDetectAll);
  support::Rng rng(3);
  campaign::Rig rig(fx, config, board, rng);
  campaign::warm_up(rig, config, nullptr);
  ASSERT_TRUE(campaign::fly_attack(rig, fx, config, rng).detected);
  ASSERT_GT(rig.master.attacks_detected(), 0u);
}

/// A flown warm-up never ends with the timer's interrupt pending: the
/// core takes it on the instruction that raises it. Holding the I flag
/// clear up to the next compare match leaves one pending.
void hold_timer_irq(sim::Board& board) {
  avr::Cpu& cpu = board.cpu();
  const auto i_flag = static_cast<std::uint8_t>(1u << avr::kI);
  for (int step = 0; step < 100'000 && !board.tick_timer().pending();
       ++step) {
    cpu.set_sreg(static_cast<std::uint8_t>(cpu.sreg() & ~i_flag));
    cpu.step();
  }
  ASSERT_TRUE(board.tick_timer().pending());
}

void release_timer_irq(sim::Board& board) {
  avr::Cpu& cpu = board.cpu();
  cpu.set_sreg(static_cast<std::uint8_t>(cpu.sreg() | (1u << avr::kI)));
}

/// One config both ways: a new board that boots and flies the warm-up,
/// and a dirtied, powered-on board that boots and restores the snapshot.
/// Both must hold the same state, then fly the same attack to the same
/// result, verdict log and state. With `pending_irq` the snapshot is
/// taken from the first board after hold_timer_irq(), and both boards get
/// their I flag back before the attack.
void check(const CampaignConfig& config, bool pending_irq = false) {
  const campaign::SimFixture& fx = fixture();
  sim::Board fresh;
  support::Rng cold_rng(11);
  campaign::Rig cold(fx, config, fresh, cold_rng);
  campaign::warm_up(cold, config, nullptr);

  std::shared_ptr<const campaign::WarmStart> warm =
      campaign::make_warm_start(config, fx);
  ASSERT_NE(warm, nullptr);
  if (pending_irq) {
    hold_timer_irq(fresh);
    warm = std::make_shared<const campaign::WarmStart>(
        campaign::WarmStart{fresh.save(), cold.engine->state()});
  }

  sim::Board reused;
  dirty(reused);
  reused.power_on();
  support::Rng warm_rng(11);
  campaign::Rig hot(fx, config, reused, warm_rng);
  campaign::warm_up(hot, config, warm.get());

  // What makes the comparison able to see a dropped field: the firmware
  // is inside called functions, has fed the watchdog line and has sent
  // telemetry.
  ASSERT_GT(fresh.feed_line().last_write_cycle(), 0u);
  ASSERT_FALSE(fresh.telemetry().state().tx.empty());
  if (config.detectors & detect::kDetectShadowStack) {
    ASSERT_FALSE(cold.engine->state().shadow.empty());
  }
  {
    SCOPED_TRACE("after the warm-up");
    expect_same_state(hot, cold);
  }
  if (pending_irq) {
    release_timer_irq(fresh);
    release_timer_irq(reused);
  }

  const campaign::TrialResult want =
      campaign::fly_attack(cold, fx, config, cold_rng);
  const campaign::TrialResult got =
      campaign::fly_attack(hot, fx, config, warm_rng);
  expect_same_result(got, want);
  SCOPED_TRACE("after the attack flight");
  expect_same_state(hot, cold);
}

std::string name(const CampaignConfig& config) {
  return std::string(campaign::scenario_name(config.scenario)) + " " +
         campaign::detect_attack_name(config.detect_attack) + " " +
         detect::detector_set_name(config.detectors) +
         (config.analyze_policy ? "" : " generic") +
         (config.exec_tier ? " tier on" : " tier off");
}

std::vector<CampaignConfig> configs(Scenario scenario,
                                    std::vector<unsigned> detector_sets) {
  std::vector<CampaignConfig> out;
  for (const DetectAttack attack : {DetectAttack::kClean, DetectAttack::kV1,
                                    DetectAttack::kV2, DetectAttack::kV3}) {
    for (const unsigned detectors : detector_sets) {
      for (const bool tier : {true, false}) {
        CampaignConfig config = sweep(scenario, attack, detectors);
        config.exec_tier = tier;
        out.push_back(config);
      }
    }
  }
  return out;
}

TEST(WarmStart, DetectSweepRestoresWhatTheWarmUpLeaves) {
  for (const CampaignConfig& config :
       configs(Scenario::kDetectSweep,
               {detect::kDetectAll, detect::kDetectShadowStack,
                detect::kDetectSpBounds, detect::kDetectCanary})) {
    SCOPED_TRACE(name(config));
    check(config);
  }
}

TEST(WarmStart, AnalyzeSweepRestoresWhatTheWarmUpLeaves) {
  for (CampaignConfig config :
       configs(Scenario::kAnalyzeSweep, {detect::kDetectAll})) {
    for (const bool derived : {true, false}) {
      config.analyze_policy = derived;
      SCOPED_TRACE(name(config));
      check(config);
    }
  }
}

TEST(WarmStart, RestoresAPendingTimerInterrupt) {
  for (const bool tier : {true, false}) {
    CampaignConfig config =
        sweep(Scenario::kDetectSweep, DetectAttack::kV2, detect::kDetectAll);
    config.exec_tier = tier;
    SCOPED_TRACE(name(config));
    check(config, /*pending_irq=*/true);
  }
}

TEST(WarmStart, OnlyWhereThePrefixIsTheSameInEveryTrial) {
  const campaign::SimFixture& fx = fixture();
  for (const Scenario scenario : {Scenario::kV1, Scenario::kV2,
                                  Scenario::kV3, Scenario::kFaultSweep}) {
    CampaignConfig config;
    config.scenario = scenario;
    EXPECT_EQ(campaign::make_warm_start(config, fx), nullptr)
        << campaign::scenario_name(scenario);
  }
  for (const Scenario scenario :
       {Scenario::kDetectSweep, Scenario::kAnalyzeSweep}) {
    CampaignConfig config;
    config.scenario = scenario;
    EXPECT_NE(campaign::make_warm_start(config, fx), nullptr);
    CampaignConfig randomized = config;
    randomized.detect_randomize = true;  // the master draws a permutation
    EXPECT_EQ(campaign::make_warm_start(randomized, fx), nullptr);
    CampaignConfig no_warmup = config;
    no_warmup.warmup_cycles = 0;
    EXPECT_EQ(campaign::make_warm_start(no_warmup, fx), nullptr);
  }
}

}  // namespace
}  // namespace mavr
