// Superblock-tier regression suite (DESIGN.md §16): reflash-safe
// invalidation, bit-identity against the interpreter over long runs and
// across rerandomization epochs, interrupt-delivery latency through the
// fn-pointer IRQ lines, and campaign-level CSV equality with the tier
// forced on and off.
#include <gtest/gtest.h>

#include <cstring>

#include "avr/cpu.hpp"
#include "avr/timer.hpp"
#include "campaign/export.hpp"
#include "campaign/scenarios.hpp"
#include "defense/patcher.hpp"
#include "firmware/generator.hpp"
#include "firmware/profile.hpp"
#include "sim/board.hpp"
#include "support/rng.hpp"
#include "toolchain/encode.hpp"

namespace mavr {
namespace {

using avr::Cpu;
using avr::Op;

const firmware::Firmware& testapp_fw() {
  static firmware::Firmware fw = firmware::generate(
      firmware::testapp(/*vulnerable=*/true),
      toolchain::ToolchainOptions::mavr());
  return fw;
}

support::Bytes to_image(const std::vector<std::uint16_t>& words) {
  support::Bytes image;
  for (std::uint16_t w : words) {
    image.push_back(static_cast<std::uint8_t>(w & 0xFF));
    image.push_back(static_cast<std::uint8_t>(w >> 8));
  }
  return image;
}

TEST(TierInvalidation, PatchedFlashByteNeverRunsStaleCode) {
  // Translate a block, reprogram flash with one instruction changed, and
  // require the next run to execute the patched code. A cache that missed
  // the generation bump would replay the old immediate.
  Cpu cpu(avr::atmega2560());
  cpu.set_exec_tier(true);
  std::vector<std::uint16_t> words;
  words.push_back(toolchain::enc_imm(Op::Ldi, 24, 0x05));
  words.push_back(toolchain::enc_no_operand(Op::Break));
  cpu.flash().program(to_image(words));
  cpu.reset();
  cpu.run(100);
  EXPECT_EQ(cpu.state(), avr::CpuState::Stopped);
  EXPECT_EQ(cpu.data().raw(24), 0x05);
  EXPECT_GE(cpu.tier_stats().blocks_translated, 1u);

  const std::uint64_t gen_before = cpu.flash().generation();
  words[0] = toolchain::enc_imm(Op::Ldi, 24, 0x07);  // patch one byte
  cpu.flash().program(to_image(words));
  EXPECT_GT(cpu.flash().generation(), gen_before);

  cpu.reset();
  cpu.run(100);
  EXPECT_EQ(cpu.state(), avr::CpuState::Stopped);
  EXPECT_EQ(cpu.data().raw(24), 0x07);  // stale code would leave 0x05
  EXPECT_GE(cpu.tier_stats().invalidations, 1u);
}

TEST(TierInterrupt, DeliveryLatencyMatchesInterpreterExactly) {
  // A timer line through the fn-pointer IRQ path against a tight RJMP
  // spin: interrupts must land on the identical cycle under tier and
  // interpreter, sampled at deliberately uneven budgets so a one-cycle
  // latency drift cannot hide behind a period boundary.
  std::vector<std::uint16_t> words;
  words.push_back(toolchain::enc_rel_jump(Op::Rjmp, 3));  // reset -> main
  words.push_back(toolchain::enc_no_operand(Op::Nop));
  words.push_back(toolchain::enc_rel_jump(Op::Rjmp, 3));  // slot 1 -> isr
  words.push_back(toolchain::enc_no_operand(Op::Nop));
  words.push_back(toolchain::enc_bset_bclr(Op::Bset, 7));  // main: SEI
  words.push_back(toolchain::enc_rel_jump(Op::Rjmp, -1));  // spin
  words.push_back(toolchain::enc_one_reg(Op::Inc, 24));    // isr: count
  words.push_back(toolchain::enc_no_operand(Op::Reti));
  const support::Bytes image = to_image(words);

  const auto sample = [&](bool exec_tier, std::uint64_t budget,
                          std::uint64_t* out_irqs) {
    Cpu cpu(avr::atmega2560());
    cpu.set_exec_tier(exec_tier);
    avr::Timer timer(cpu.io(), /*period=*/1000);
    cpu.set_irq_line(
        1, [](void* t) { return static_cast<avr::Timer*>(t)->take_irq(); },
        &timer);
    cpu.flash().program(image);
    cpu.reset();
    cpu.run(budget);
    *out_irqs = cpu.interrupts_taken();
    // r24 is the ISR's counter; it can lag interrupts_taken() by one when
    // the budget lands mid-ISR, so it is compared across modes, not
    // against the count.
    return std::tuple{cpu.cycles(), cpu.interrupts_taken(), cpu.pc(),
                      cpu.sp(), cpu.sreg(), cpu.data().raw(24)};
  };

  std::uint64_t total_irqs = 0;
  for (const std::uint64_t budget :
       {997ull, 1003ull, 1010ull, 5021ull, 29'989ull}) {
    std::uint64_t tier_irqs = 0, interp_irqs = 0;
    EXPECT_EQ(sample(true, budget, &tier_irqs),
              sample(false, budget, &interp_irqs))
        << "budget " << budget;
    EXPECT_EQ(tier_irqs, interp_irqs);
    total_irqs += tier_irqs;
  }
  EXPECT_GT(total_irqs, 30u);  // the spin really was interrupted
}

TEST(TierDeadline, UnboundedBudgetRunsToBreakInBothModes) {
  // run(UINT64_MAX) after some cycles have elapsed: the deadline must
  // saturate rather than wrap into the past, so both execution paths run
  // the countdown to its BREAK and stop in the same state.
  std::vector<std::uint16_t> words;
  words.push_back(toolchain::enc_imm(Op::Ldi, 25, 20));
  words.push_back(toolchain::enc_one_reg(Op::Dec, 25));  // loop: dec r25
  words.push_back(toolchain::enc_branch(Op::Brbc, avr::kZ, -2));  // brne
  words.push_back(toolchain::enc_imm(Op::Ldi, 24, 0x05));
  words.push_back(toolchain::enc_no_operand(Op::Break));
  const auto finish = [&](bool exec_tier) {
    Cpu cpu(avr::atmega2560());
    cpu.set_exec_tier(exec_tier);
    cpu.flash().program(to_image(words));
    cpu.reset();
    cpu.run(10);
    EXPECT_EQ(cpu.state(), avr::CpuState::Running);
    const std::uint64_t ran = cpu.run(UINT64_MAX);
    EXPECT_EQ(cpu.state(), avr::CpuState::Stopped);
    EXPECT_EQ(cpu.data().raw(24), 0x05);
    return std::tuple{ran, cpu.cycles(), cpu.instructions_retired(),
                      cpu.pc(), cpu.sp(), cpu.sreg(), cpu.data().raw(25)};
  };
  EXPECT_EQ(finish(true), finish(false));
}

struct CoreState {
  std::uint64_t cycles;
  std::uint64_t retired;
  std::uint64_t irqs;
  std::uint32_t pc;
  std::uint16_t sp;
  std::uint8_t sreg;
  bool operator==(const CoreState&) const = default;
};

CoreState core_state(const sim::Board& board) {
  const Cpu& cpu = board.cpu();
  return {cpu.cycles(), cpu.instructions_retired(), cpu.interrupts_taken(),
          cpu.pc(),     cpu.sp(),                   cpu.sreg()};
}

TEST(TierIdentity, LongTestappRunMatchesInterpreterIncludingAllRam) {
  sim::Board tier_board, ref_board;
  tier_board.cpu().set_exec_tier(true);
  ref_board.cpu().set_exec_tier(false);
  tier_board.flash_image(testapp_fw().image.bytes);
  ref_board.flash_image(testapp_fw().image.bytes);
  tier_board.run_cycles(20'000'000);
  ref_board.run_cycles(20'000'000);
  EXPECT_EQ(core_state(tier_board), core_state(ref_board));
  EXPECT_EQ(std::memcmp(tier_board.cpu().data().raw_data(),
                        ref_board.cpu().data().raw_data(),
                        tier_board.cpu().data().size()),
            0);
  EXPECT_GT(tier_board.cpu().tier_stats().block_instructions, 1'000'000u);
}

TEST(TierInvalidation, RerandomizedReflashLoopStaysBitIdentical) {
  // Twenty rerandomization epochs on the same boards: every reflash must
  // invalidate (one epoch bump each), retranslate, and keep the tier
  // bit-identical to the interpreter on the fresh image.
  const toolchain::SymbolBlob blob =
      toolchain::SymbolBlob::from_image(testapp_fw().image);
  support::Rng rng(77);

  sim::Board tier_board, ref_board;
  tier_board.cpu().set_exec_tier(true);
  ref_board.cpu().set_exec_tier(false);

  const std::uint64_t invalidations0 =
      tier_board.cpu().tier_stats().invalidations;
  for (int epoch = 0; epoch < 20; ++epoch) {
    const support::Bytes image =
        defense::randomize_image(testapp_fw().image.bytes, blob, rng).image;
    tier_board.flash_image(image);
    ref_board.flash_image(image);
    tier_board.run_cycles(300'000);
    ref_board.run_cycles(300'000);
    ASSERT_EQ(core_state(tier_board), core_state(ref_board))
        << "epoch " << epoch;
    ASSERT_EQ(std::memcmp(tier_board.cpu().data().raw_data(),
                          ref_board.cpu().data().raw_data(),
                          tier_board.cpu().data().size()),
              0)
        << "epoch " << epoch;
  }
  // First flash lands on a fresh cache; the other 19 must each invalidate.
  EXPECT_GE(tier_board.cpu().tier_stats().invalidations - invalidations0,
            19u);
}

TEST(TierCampaign, V2CampaignCsvIsIdenticalTierOnAndOff) {
  // End-to-end equality where it matters for the paper's numbers: a small
  // V2 board campaign exported to CSV must not change a single byte when
  // the execution tier is toggled.
  const campaign::SimFixture& fx =
      campaign::make_sim_fixture(firmware::testapp(/*vulnerable=*/true));
  campaign::CampaignConfig config;
  config.scenario = campaign::Scenario::kV2;
  config.trials = 6;
  config.jobs = 2;
  config.seed = 0x7E57;

  config.exec_tier = true;
  const campaign::CampaignStats tier_stats =
      campaign::run_campaign(config, fx);
  const std::string tier_csv = campaign::to_csv(config, tier_stats);

  config.exec_tier = false;
  const campaign::CampaignStats interp_stats =
      campaign::run_campaign(config, fx);
  std::string interp_csv = campaign::to_csv(config, interp_stats);

  // The config column set is identical (exec_tier is not an exported
  // column), so byte-compare is meaningful.
  EXPECT_EQ(tier_csv, interp_csv);
  EXPECT_EQ(tier_stats.trials, interp_stats.trials);
}

}  // namespace
}  // namespace mavr
