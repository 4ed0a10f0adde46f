// Decode-cache reset after a reflash: the cache sits on zero pages and a
// resync clears only the slots that were decoded, so a reprogrammed image
// must run exactly as it would on a fresh core — whether the changed words
// were decoded before (including the second word of a two-word
// instruction) or never were.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "avr/cpu.hpp"
#include "support/zero_pages.hpp"
#include "toolchain/encode.hpp"

namespace mavr {
namespace {

using avr::Cpu;
using avr::Op;

support::Bytes to_image(const std::vector<std::uint16_t>& words) {
  support::Bytes image;
  for (std::uint16_t w : words) {
    image.push_back(static_cast<std::uint8_t>(w & 0xFF));
    image.push_back(static_cast<std::uint8_t>(w >> 8));
  }
  return image;
}

std::vector<std::uint16_t> program(std::uint8_t r16, std::uint16_t lds_addr,
                                   bool skip) {
  const toolchain::WordPair lds = toolchain::enc_lds(18, lds_addr);
  return {
      toolchain::enc_imm(Op::Ldi, 16, r16),  // 0
      toolchain::enc_imm(Op::Ldi, 17, 0x07),  // 1
      lds.first,                              // 2
      lds.second,                             // 3
      skip ? toolchain::enc_rel_jump(Op::Rjmp, 2)
           : toolchain::enc_no_operand(Op::Nop),  // 4
      toolchain::enc_imm(Op::Ldi, skip ? 19 : 20, 0x33),  // 5
      toolchain::enc_imm(Op::Ldi, skip ? 21 : 22, 0x44),  // 6
      toolchain::enc_two_reg(Op::Add, 16, 17),           // 7
      toolchain::enc_two_reg(Op::Mov, 23, 16),           // 8
      toolchain::enc_no_operand(Op::Break),              // 9
  };
}

// A runs words 0-4 and 7-9: words 5 and 6 are never decoded. B changes
// decoded word 0, the LDS address (second word of a decoded two-word
// instruction), decoded word 4 (now falls through), and undecoded 5 and 6.
const std::vector<std::uint16_t> kImageA = program(0x05, 0x0200, true);
const std::vector<std::uint16_t> kImageB = program(0x09, 0x0201, false);

struct Outcome {
  support::Bytes data;
  std::uint32_t pc = 0;
  std::uint16_t sp = 0;
  std::uint8_t sreg = 0;
  avr::CpuState state = avr::CpuState::Running;
  std::uint64_t cycles = 0;   ///< consumed by this image's run
  std::uint64_t retired = 0;  ///< retired by this image's run
  bool operator==(const Outcome&) const = default;
};

/// Reprograms `cpu` with `words` and runs it to BREAK — in one run() or in
/// one-cycle slices, which force every instruction through the
/// interpreter's decode cache even with the tier on.
Outcome flash_and_run(Cpu& cpu, const std::vector<std::uint16_t>& words,
                      bool sliced) {
  cpu.flash().erase();
  cpu.flash().program(to_image(words));
  cpu.reset();
  cpu.data().set_raw(0x0200, 0xA0);
  cpu.data().set_raw(0x0201, 0xB1);
  const std::uint64_t retired0 = cpu.instructions_retired();
  Outcome r;
  if (sliced) {
    for (int i = 0; i < 100 && cpu.state() == avr::CpuState::Running; ++i) {
      r.cycles += cpu.run(1);
    }
  } else {
    r.cycles = cpu.run(1000);
  }
  r.data.assign(cpu.data().raw_data(),
                cpu.data().raw_data() + cpu.data().size());
  r.pc = cpu.pc();
  r.sp = cpu.sp();
  r.sreg = cpu.sreg();
  r.state = cpu.state();
  r.retired = cpu.instructions_retired() - retired0;
  return r;
}

TEST(DecodeCacheReset, ReprogrammedImageRunsLikeOnAFreshCore) {
  for (const bool tier : {true, false}) {
    for (const bool sliced : {false, true}) {
      SCOPED_TRACE(std::string(tier ? "tier on" : "tier off") +
                   (sliced ? ", sliced" : ", one run"));
      Cpu fresh_a(avr::atmega2560());
      fresh_a.set_exec_tier(tier);
      const Outcome want_a = flash_and_run(fresh_a, kImageA, sliced);
      Cpu fresh_b(avr::atmega2560());
      fresh_b.set_exec_tier(tier);
      const Outcome want_b = flash_and_run(fresh_b, kImageB, sliced);
      ASSERT_EQ(want_a.state, avr::CpuState::Stopped);
      ASSERT_EQ(want_b.state, avr::CpuState::Stopped);
      // The images must disagree where a stale decode would show.
      EXPECT_EQ(want_a.data[16], 0x05 + 0x07);
      EXPECT_EQ(want_b.data[16], 0x09 + 0x07);
      EXPECT_EQ(want_a.data[18], 0xA0);
      EXPECT_EQ(want_b.data[18], 0xB1);
      EXPECT_EQ(want_a.data[20], 0x00);
      EXPECT_EQ(want_b.data[20], 0x33);

      Cpu reused(avr::atmega2560());
      reused.set_exec_tier(tier);
      for (int round = 0; round < 3; ++round) {
        EXPECT_TRUE(flash_and_run(reused, kImageA, sliced) == want_a)
            << "round " << round << ", image A";
        const Outcome got_b = flash_and_run(reused, kImageB, sliced);
        EXPECT_EQ(std::memcmp(got_b.data.data(), want_b.data.data(),
                              want_b.data.size()),
                  0)
            << "round " << round;
        EXPECT_TRUE(got_b == want_b) << "round " << round << ", image B";
      }
    }
  }
}

TEST(DecodeCacheReset, PowerOnRetiresEveryDecode) {
  // power_on() erases the flash: a core reprogrammed with B after running
  // A and powering on must behave like a fresh one, counters included.
  for (const bool tier : {true, false}) {
    Cpu fresh(avr::atmega2560());
    fresh.set_exec_tier(tier);
    const Outcome want = flash_and_run(fresh, kImageB, /*sliced=*/false);
    Cpu reused(avr::atmega2560());
    reused.set_exec_tier(tier);
    flash_and_run(reused, kImageA, /*sliced=*/false);
    reused.power_on();
    EXPECT_EQ(reused.cycles(), 0u);
    EXPECT_EQ(reused.instructions_retired(), 0u);
    EXPECT_EQ(reused.tier_stats().blocks_translated, 0u);
    reused.set_exec_tier(tier);
    EXPECT_TRUE(flash_and_run(reused, kImageB, /*sliced=*/false) == want);
    EXPECT_EQ(reused.cycles(), fresh.cycles());
    EXPECT_EQ(reused.tier_stats().blocks_translated,
              fresh.tier_stats().blocks_translated);
    EXPECT_EQ(reused.tier_stats().invalidations,
              fresh.tier_stats().invalidations);
  }
}

TEST(ZeroPages, ReadZeroUntilWrittenAndMoveOwnership) {
  support::ZeroPages<std::uint64_t> table(1u << 17);
  ASSERT_EQ(table.size(), 1u << 17);
  for (std::size_t i = 0; i < table.size(); i += 4093) {
    EXPECT_EQ(table[i], 0u);
  }
  table[12345] = 0xDEADBEEF;
  support::ZeroPages<std::uint64_t> moved(std::move(table));
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(moved[12345], 0xDEADBEEFu);
  table = std::move(moved);
  EXPECT_EQ(table[12345], 0xDEADBEEFu);
  EXPECT_TRUE(support::ZeroPages<std::uint64_t>(0).empty());
}

}  // namespace
}  // namespace mavr
