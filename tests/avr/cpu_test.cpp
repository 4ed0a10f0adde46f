// AVR CPU execution semantics: ALU flags, the memory-mapped register file
// and stack pointer (what the paper's gadgets exploit), 3-byte call frames,
// control flow, skips and program-memory access.
#include <gtest/gtest.h>

#include "avr/cpu.hpp"
#include "toolchain/encode.hpp"

namespace mavr {
namespace {

using avr::Cpu;
using avr::CpuState;
using avr::Op;
using namespace mavr::toolchain;

/// Loads raw words as a program at address 0 and returns a fresh core.
class CpuTest : public ::testing::Test {
 protected:
  CpuTest() : cpu_(avr::atmega2560()) {}

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

  void step(int n = 1) {
    for (int i = 0; i < n; ++i) cpu_.step();
  }

  Cpu cpu_;
};

TEST_F(CpuTest, ResetState) {
  load({0x0000});
  EXPECT_EQ(cpu_.pc(), 0u);
  EXPECT_EQ(cpu_.sp(), 0x21FF);
  EXPECT_EQ(cpu_.sreg(), 0);
  EXPECT_EQ(cpu_.state(), CpuState::Running);
}

TEST_F(CpuTest, AddSetsCarryAndZero) {
  load({enc_imm(Op::Ldi, 24, 0xFF), enc_imm(Op::Ldi, 25, 0x01),
        enc_two_reg(Op::Add, 24, 25)});
  step(3);
  EXPECT_EQ(cpu_.reg(24), 0x00);
  EXPECT_TRUE(cpu_.flag(avr::kC));
  EXPECT_TRUE(cpu_.flag(avr::kZ));
  EXPECT_FALSE(cpu_.flag(avr::kN));
}

TEST_F(CpuTest, AddSignedOverflowSetsV) {
  load({enc_imm(Op::Ldi, 24, 0x7F), enc_imm(Op::Ldi, 25, 0x01),
        enc_two_reg(Op::Add, 24, 25)});
  step(3);
  EXPECT_EQ(cpu_.reg(24), 0x80);
  EXPECT_TRUE(cpu_.flag(avr::kV));
  EXPECT_TRUE(cpu_.flag(avr::kN));
  EXPECT_FALSE(cpu_.flag(avr::kS));  // S = N ^ V
  EXPECT_TRUE(cpu_.flag(avr::kH));   // carry out of bit 3
}

TEST_F(CpuTest, AdcPropagatesCarry) {
  load({enc_imm(Op::Ldi, 24, 0xFF), enc_imm(Op::Ldi, 25, 0x01),
        enc_imm(Op::Ldi, 26, 0x10), enc_imm(Op::Ldi, 27, 0x00),
        enc_two_reg(Op::Add, 24, 25),    // FF+01 -> 00, C=1
        enc_two_reg(Op::Adc, 26, 27)});  // 10+00+C -> 11
  step(6);
  EXPECT_EQ(cpu_.reg(26), 0x11);
  EXPECT_FALSE(cpu_.flag(avr::kC));
}

TEST_F(CpuTest, SubAndCompareBorrow) {
  load({enc_imm(Op::Ldi, 24, 0x05), enc_imm(Op::Ldi, 25, 0x0A),
        enc_two_reg(Op::Sub, 24, 25)});
  step(3);
  EXPECT_EQ(cpu_.reg(24), 0xFB);
  EXPECT_TRUE(cpu_.flag(avr::kC));  // borrow
  EXPECT_TRUE(cpu_.flag(avr::kN));
}

TEST_F(CpuTest, SbcOnlyClearsZ) {
  // 16-bit compare idiom: low bytes equal sets Z; SBC of equal highs with
  // no borrow must KEEP Z (not set it afresh).
  load({enc_imm(Op::Ldi, 24, 0x01), enc_imm(Op::Ldi, 25, 0x01),
        enc_two_reg(Op::Sub, 24, 25),   // Z=1, C=0
        enc_imm(Op::Ldi, 26, 0x05), enc_imm(Op::Ldi, 27, 0x04),
        enc_two_reg(Op::Sbc, 26, 27)});  // 5-4-0 = 1 -> Z must clear
  step(6);
  EXPECT_FALSE(cpu_.flag(avr::kZ));

  load({enc_imm(Op::Ldi, 24, 0x01), enc_imm(Op::Ldi, 25, 0x01),
        enc_two_reg(Op::Sub, 24, 25),   // Z=1
        enc_imm(Op::Ldi, 26, 0x04), enc_imm(Op::Ldi, 27, 0x04),
        enc_two_reg(Op::Sbc, 26, 27)});  // 4-4-0 = 0 -> Z stays set
  step(6);
  EXPECT_TRUE(cpu_.flag(avr::kZ));

  // A zero result after a nonzero low byte leaves Z clear, for SBC and
  // CPC alike (0x0402 vs 0x0401).
  for (const Op op : {Op::Sbc, Op::Cpc}) {
    load({enc_imm(Op::Ldi, 24, 0x02), enc_imm(Op::Ldi, 25, 0x01),
          enc_two_reg(Op::Sub, 24, 25),  // Z=0, C=0
          enc_imm(Op::Ldi, 26, 0x04), enc_imm(Op::Ldi, 27, 0x04),
          enc_two_reg(op, 26, 27)});     // 4-4-0 = 0 -> Z stays clear
    step(6);
    EXPECT_FALSE(cpu_.flag(avr::kZ)) << avr::op_name(op);
  }
}

TEST_F(CpuTest, LogicClearsV) {
  load({enc_imm(Op::Ldi, 24, 0xF0), enc_imm(Op::Ldi, 25, 0x0F),
        enc_two_reg(Op::Or, 24, 25)});
  step(3);
  EXPECT_EQ(cpu_.reg(24), 0xFF);
  EXPECT_FALSE(cpu_.flag(avr::kV));
  EXPECT_TRUE(cpu_.flag(avr::kN));
  EXPECT_TRUE(cpu_.flag(avr::kS));
}

TEST_F(CpuTest, ComSetsCarry) {
  load({enc_imm(Op::Ldi, 24, 0x55), enc_one_reg(Op::Com, 24)});
  step(2);
  EXPECT_EQ(cpu_.reg(24), 0xAA);
  EXPECT_TRUE(cpu_.flag(avr::kC));
}

TEST_F(CpuTest, NegOfZero) {
  load({enc_imm(Op::Ldi, 24, 0x00), enc_one_reg(Op::Neg, 24)});
  step(2);
  EXPECT_EQ(cpu_.reg(24), 0x00);
  EXPECT_FALSE(cpu_.flag(avr::kC));
  EXPECT_TRUE(cpu_.flag(avr::kZ));
}

TEST_F(CpuTest, IncDecPreserveCarry) {
  load({enc_imm(Op::Ldi, 24, 0xFF), enc_imm(Op::Ldi, 25, 0x01),
        enc_two_reg(Op::Add, 24, 25),  // C=1
        enc_one_reg(Op::Inc, 24)});
  step(4);
  EXPECT_EQ(cpu_.reg(24), 0x01);
  EXPECT_TRUE(cpu_.flag(avr::kC));  // INC must not clobber C
}

TEST_F(CpuTest, ShiftsAndRotate) {
  load({enc_imm(Op::Ldi, 24, 0x81), enc_one_reg(Op::Lsr, 24),
        enc_one_reg(Op::Ror, 24)});
  step(2);
  EXPECT_EQ(cpu_.reg(24), 0x40);
  EXPECT_TRUE(cpu_.flag(avr::kC));  // bit0 of 0x81
  step(1);                          // ROR pulls C into bit 7
  EXPECT_EQ(cpu_.reg(24), 0xA0);
  EXPECT_FALSE(cpu_.flag(avr::kC));
}

TEST_F(CpuTest, AsrKeepsSign) {
  load({enc_imm(Op::Ldi, 24, 0x84), enc_one_reg(Op::Asr, 24)});
  step(2);
  EXPECT_EQ(cpu_.reg(24), 0xC2);
}

TEST_F(CpuTest, MulWritesR1R0) {
  load({enc_imm(Op::Ldi, 24, 200), enc_imm(Op::Ldi, 25, 3),
        enc_two_reg(Op::Mul, 24, 25)});
  step(3);
  EXPECT_EQ(cpu_.reg(0), (200 * 3) & 0xFF);
  EXPECT_EQ(cpu_.reg(1), (200 * 3) >> 8);
}

TEST_F(CpuTest, AdiwSbiwSixteenBit) {
  load({enc_imm(Op::Ldi, 28, 0xFE), enc_imm(Op::Ldi, 29, 0x00),
        enc_adiw(Op::Adiw, 28, 5), enc_adiw(Op::Sbiw, 28, 3)});
  step(3);
  EXPECT_EQ(cpu_.reg_pair(28), 0x0103);
  step(1);
  EXPECT_EQ(cpu_.reg_pair(28), 0x0100);
}

TEST_F(CpuTest, MovwMovesPair) {
  load({enc_imm(Op::Ldi, 30, 0x34), enc_imm(Op::Ldi, 31, 0x12),
        enc_movw(28, 30)});
  step(3);
  EXPECT_EQ(cpu_.reg_pair(28), 0x1234);
}

// --- The properties the attacks rest on -------------------------------------

TEST_F(CpuTest, RegisterFileIsMemoryMapped) {
  // STD Y+q can write the register file — the basis of write_mem's power.
  load({enc_imm(Op::Ldi, 28, 0x00), enc_imm(Op::Ldi, 29, 0x00),
        enc_imm(Op::Ldi, 20, 0x77), enc_std(true, 5, 20)});
  step(4);
  EXPECT_EQ(cpu_.reg(5), 0x77);  // wrote data address 5 = r5
}

TEST_F(CpuTest, OutToSpMovesTheStackPointer) {
  // The stk_move gadget body: out SPH/SPL from r29:r28.
  load({enc_imm(Op::Ldi, 28, 0x80), enc_imm(Op::Ldi, 29, 0x21),
        enc_out(avr::kIoSph, 29), enc_out(avr::kIoSpl, 28)});
  step(4);
  EXPECT_EQ(cpu_.sp(), 0x2180);
}

TEST_F(CpuTest, SregIsMemoryMapped) {
  load({enc_imm(Op::Ldi, 24, 0xFF), enc_out(avr::kIoSreg, 24)});
  step(2);
  EXPECT_EQ(cpu_.sreg(), 0xFF);
  EXPECT_TRUE(cpu_.flag(avr::kZ));
}

TEST_F(CpuTest, CallPushesThreeBytesBigEndian) {
  load({enc_abs_jump(Op::Call, 0x15A7C / 2).first,
        enc_abs_jump(Op::Call, 0x15A7C / 2).second});
  const std::uint16_t sp0 = cpu_.sp();
  step(1);
  EXPECT_EQ(cpu_.pc(), 0x15A7Cu / 2);
  EXPECT_EQ(cpu_.sp(), sp0 - 3);
  // Return address 0x000002 (words), big-endian toward ascending memory.
  EXPECT_EQ(cpu_.data().raw(sp0 - 2), 0x00);
  EXPECT_EQ(cpu_.data().raw(sp0 - 1), 0x00);
  EXPECT_EQ(cpu_.data().raw(sp0), 0x02);
}

TEST_F(CpuTest, RetPopsThreeBytes) {
  // Craft a return address on the stack by hand, the ROP way.
  load({enc_no_operand(Op::Ret)});
  cpu_.set_sp(0x21F0);
  cpu_.data().set_raw(0x21F1, 0x01);  // bits 16..23
  cpu_.data().set_raw(0x21F2, 0x5D);  // high byte
  cpu_.data().set_raw(0x21F3, 0x64);  // low byte
  step(1);
  EXPECT_EQ(cpu_.pc(), 0x15D64u);
  EXPECT_EQ(cpu_.sp(), 0x21F3);
}

TEST_F(CpuTest, RetKeepsRawReturnAddressForForensics) {
  // Regression: pop_pc masked the popped value before anyone saw it, so a
  // smashed frame whose third byte pointed past the end of flash was
  // indistinguishable from a legitimate return after wrapping. The
  // architectural PC must still wrap, but the raw bytes are now preserved
  // for the tracer and carried into any subsequent fault record.
  load({enc_no_operand(Op::Ret),  // 0: returns "to" 0x20001 -> wraps to 1
        0x0001});                 // 1: reserved encoding, faults
  cpu_.set_sp(0x21F0);
  cpu_.data().set_raw(0x21F1, 0x02);  // bits 16..23: above the 128K-word mask
  cpu_.data().set_raw(0x21F2, 0x00);
  cpu_.data().set_raw(0x21F3, 0x01);
  step(1);
  EXPECT_EQ(cpu_.pc(), 1u);  // masked semantics unchanged
  EXPECT_EQ(cpu_.last_ret_raw_words(), 0x20001u);
  EXPECT_TRUE(cpu_.last_ret_wrapped());
  step(1);  // invalid opcode at the wrapped target
  ASSERT_EQ(cpu_.state(), CpuState::Faulted);
  EXPECT_EQ(cpu_.fault().last_ret_raw_words, 0x20001u);
  EXPECT_TRUE(cpu_.fault().last_ret_wrapped);
  EXPECT_GT(cpu_.fault().cycle, 0u);
}

TEST_F(CpuTest, InRangeRetReportsUnwrapped) {
  load({enc_no_operand(Op::Ret)});
  cpu_.set_sp(0x21F0);
  cpu_.data().set_raw(0x21F1, 0x01);
  cpu_.data().set_raw(0x21F2, 0x5D);
  cpu_.data().set_raw(0x21F3, 0x64);
  step(1);
  EXPECT_EQ(cpu_.last_ret_raw_words(), 0x15D64u);
  EXPECT_FALSE(cpu_.last_ret_wrapped());
}

TEST_F(CpuTest, PushPopRoundTrip) {
  load({enc_imm(Op::Ldi, 24, 0xAB), enc_push(24), enc_pop(25)});
  step(3);
  EXPECT_EQ(cpu_.reg(25), 0xAB);
  EXPECT_EQ(cpu_.sp(), 0x21FF);
}

TEST_F(CpuTest, RcallRoundTrip) {
  load({enc_rel_jump(Op::Rcall, 2),   // 0: call to word 3
        0x0000,                        // 1
        enc_no_operand(Op::Break),     // 2: lands here after ret
        enc_no_operand(Op::Ret)});     // 3: callee
  step(2);  // rcall, ret
  EXPECT_EQ(cpu_.pc(), 1u);
  step(2);  // nop, break
  EXPECT_EQ(cpu_.state(), CpuState::Stopped);
}

TEST_F(CpuTest, IjmpUsesZ) {
  load({enc_imm(Op::Ldi, 30, 0x05), enc_imm(Op::Ldi, 31, 0x00),
        enc_no_operand(Op::Ijmp)});
  step(3);
  EXPECT_EQ(cpu_.pc(), 5u);
}

TEST_F(CpuTest, EicallUsesEindAndZ) {
  load({enc_imm(Op::Ldi, 24, 0x01), enc_out(avr::kIoEind, 24),
        enc_imm(Op::Ldi, 30, 0x10), enc_imm(Op::Ldi, 31, 0x00),
        enc_no_operand(Op::Eicall)});
  step(5);
  EXPECT_EQ(cpu_.pc(), 0x10010u);
  EXPECT_EQ(cpu_.sp(), 0x21FF - 3);
}

TEST_F(CpuTest, BranchTakenAndNotTaken) {
  load({enc_imm(Op::Ldi, 24, 1), enc_imm(Op::Ldi, 25, 1),
        enc_two_reg(Op::Cp, 24, 25),       // equal -> Z
        enc_branch(Op::Brbs, avr::kZ, 1),  // breq +1
        enc_no_operand(Op::Break),         // skipped
        enc_no_operand(Op::Nop)});
  step(4);
  EXPECT_EQ(cpu_.pc(), 5u);
  EXPECT_EQ(cpu_.state(), CpuState::Running);
}

TEST_F(CpuTest, SkipOverTwoWordInstruction) {
  // SBRS must skip the whole 2-word CALL that follows.
  load({enc_imm(Op::Ldi, 24, 0x80),
        enc_skip_reg(Op::Sbrs, 24, 7),           // bit set -> skip call
        enc_abs_jump(Op::Call, 0x100).first,
        enc_abs_jump(Op::Call, 0x100).second,
        enc_no_operand(Op::Break)});
  step(3);
  EXPECT_EQ(cpu_.state(), CpuState::Stopped);  // reached break, call skipped
}

TEST_F(CpuTest, CpseSkips) {
  load({enc_imm(Op::Ldi, 24, 7), enc_imm(Op::Ldi, 25, 7),
        enc_two_reg(Op::Cpse, 24, 25), enc_no_operand(Op::Break),
        enc_no_operand(Op::Nop)});
  step(4);
  EXPECT_EQ(cpu_.state(), CpuState::Running);
  EXPECT_EQ(cpu_.pc(), 5u);
}

TEST_F(CpuTest, LpmReadsFlashBytes) {
  load({enc_imm(Op::Ldi, 30, 0x00), enc_imm(Op::Ldi, 31, 0x00),
        enc_lpm(Op::LpmInc, 24), enc_lpm(Op::Lpm, 25)});
  step(4);
  // Word 0 is "ldi r30, 0" = 0xE0E0; low byte first.
  EXPECT_EQ(cpu_.reg(24), 0xE0);
  EXPECT_EQ(cpu_.reg(25), 0xE0);
  EXPECT_EQ(cpu_.reg_pair(30), 1u);
}

TEST_F(CpuTest, LdsStsRoundTrip) {
  load({enc_imm(Op::Ldi, 24, 0x5A), enc_sts(0x0300, 24).first,
        enc_sts(0x0300, 24).second, enc_lds(25, 0x0300).first,
        enc_lds(25, 0x0300).second});
  step(3);
  EXPECT_EQ(cpu_.reg(25), 0x5A);
  EXPECT_EQ(cpu_.data().raw(0x0300), 0x5A);
}

TEST_F(CpuTest, IndirectAddressingPostIncrement) {
  load({enc_imm(Op::Ldi, 26, 0x00), enc_imm(Op::Ldi, 27, 0x03),
        enc_imm(Op::Ldi, 20, 0x11), enc_ld_st(Op::StXInc, 20),
        enc_imm(Op::Ldi, 20, 0x22), enc_ld_st(Op::StXInc, 20)});
  step(6);
  EXPECT_EQ(cpu_.data().raw(0x0300), 0x11);
  EXPECT_EQ(cpu_.data().raw(0x0301), 0x22);
  EXPECT_EQ(cpu_.reg_pair(26), 0x0302);
}

TEST_F(CpuTest, PointerWriteBackOrderWhenRdIsThePointer) {
  // LD/ST with Rd inside the pointer pair: the model writes a
  // post-increment back after the access and a pre-decrement before it,
  // so the loaded byte is overwritten and the stored byte is the new one.
  load({enc_imm(Op::Ldi, 20, 0xAB), enc_sts(0x0300, 20).first,
        enc_sts(0x0300, 20).second, enc_imm(Op::Ldi, 26, 0x00),
        enc_imm(Op::Ldi, 27, 0x03), enc_ld_st(Op::LdXInc, 26)});
  step(5);
  EXPECT_EQ(cpu_.reg_pair(26), 0x0301);  // r26 = 0xAB, then X+1

  load({enc_imm(Op::Ldi, 26, 0x01), enc_imm(Op::Ldi, 27, 0x03),
        enc_ld_st(Op::StXDec, 26)});
  step(3);
  EXPECT_EQ(cpu_.reg_pair(26), 0x0300);
  EXPECT_EQ(cpu_.data().raw(0x0300), 0x00);  // the decremented low byte
}

TEST_F(CpuTest, InvalidOpcodeFaults) {
  load({0x0001});  // reserved encoding
  step(1);
  EXPECT_EQ(cpu_.state(), CpuState::Faulted);
  EXPECT_EQ(cpu_.fault().pc_words, 0u);
  EXPECT_NE(cpu_.fault().reason.find("invalid opcode"), std::string::npos);
  // A faulted core does not execute further.
  const std::uint64_t cycles = cpu_.cycles();
  step(5);
  EXPECT_EQ(cpu_.cycles(), cycles);
}

TEST_F(CpuTest, RunStopsAtBudget) {
  load({enc_rel_jump(Op::Rjmp, -1)});  // spin forever
  const std::uint64_t used = cpu_.run(1000);
  EXPECT_GE(used, 1000u);
  EXPECT_LE(used, 1002u);
  EXPECT_EQ(cpu_.state(), CpuState::Running);
}

TEST_F(CpuTest, CycleCounting) {
  load({0x0000, enc_push(0), enc_pop(0), enc_abs_jump(Op::Jmp, 6).first,
        enc_abs_jump(Op::Jmp, 6).second});
  step(1);
  EXPECT_EQ(cpu_.cycles(), 1u);  // nop
  step(1);
  EXPECT_EQ(cpu_.cycles(), 3u);  // push = 2
  step(1);
  EXPECT_EQ(cpu_.cycles(), 5u);  // pop = 2
  step(1);
  EXPECT_EQ(cpu_.cycles(), 8u);  // jmp = 3
}

TEST_F(CpuTest, BstBldMoveBitsThroughT) {
  load({enc_imm(Op::Ldi, 24, 0x08), enc_bst_bld(Op::Bst, 24, 3),
        enc_imm(Op::Ldi, 25, 0x00), enc_bst_bld(Op::Bld, 25, 6)});
  step(4);
  EXPECT_EQ(cpu_.reg(25), 0x40);
}

TEST_F(CpuTest, FlashWriteInvalidatesDecodeCache) {
  load({0x0000, 0x0000});
  step(1);
  // Reprogram word 1 to BREAK after it was (potentially) decoded.
  support::Bytes page(cpu_.spec().flash_page_bytes, 0xFF);
  page[2] = static_cast<std::uint8_t>(enc_no_operand(Op::Break) & 0xFF);
  page[3] = static_cast<std::uint8_t>(enc_no_operand(Op::Break) >> 8);
  cpu_.flash().program_page(0, page);
  cpu_.set_pc(1);
  step(1);
  EXPECT_EQ(cpu_.state(), CpuState::Stopped);
}

}  // namespace
}  // namespace mavr
