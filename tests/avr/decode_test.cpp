// Encoder/decoder round-trip property tests over the implemented AVR ISA.
// The encoders live in the toolchain (assembler/patcher side) and the
// decoder in the simulator; agreement between them is what makes the
// linker → simulator → patcher pipeline coherent.
#include <gtest/gtest.h>

#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "avr/decode.hpp"
#include "avr/walk.hpp"
#include "support/bytes.hpp"
#include "toolchain/encode.hpp"

namespace mavr {
namespace {

using avr::decode;
using avr::Instr;
using avr::Op;
using namespace mavr::toolchain;

class TwoRegRoundTrip : public ::testing::TestWithParam<Op> {};

TEST_P(TwoRegRoundTrip, AllRegisterPairs) {
  for (unsigned rd = 0; rd < 32; ++rd) {
    for (unsigned rr = 0; rr < 32; ++rr) {
      const std::uint16_t w = enc_two_reg(GetParam(), rd, rr);
      const Instr in = decode(w, 0);
      ASSERT_EQ(in.op, GetParam()) << "rd=" << rd << " rr=" << rr;
      ASSERT_EQ(in.rd, rd);
      ASSERT_EQ(in.rr, rr);
      ASSERT_EQ(in.size_words, 1);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ops, TwoRegRoundTrip,
                         ::testing::Values(Op::Add, Op::Adc, Op::Sub, Op::Sbc,
                                           Op::And, Op::Or, Op::Eor, Op::Mov,
                                           Op::Cp, Op::Cpc, Op::Cpse,
                                           Op::Mul));

class ImmRoundTrip : public ::testing::TestWithParam<Op> {};

TEST_P(ImmRoundTrip, AllRegistersAndImmediates) {
  for (unsigned rd = 16; rd < 32; ++rd) {
    for (unsigned k = 0; k < 256; k += 7) {
      const std::uint16_t w =
          enc_imm(GetParam(), rd, static_cast<std::uint8_t>(k));
      const Instr in = decode(w, 0);
      ASSERT_EQ(in.op, GetParam());
      ASSERT_EQ(in.rd, rd);
      ASSERT_EQ(in.k, k);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ops, ImmRoundTrip,
                         ::testing::Values(Op::Ldi, Op::Cpi, Op::Subi,
                                           Op::Sbci, Op::Andi, Op::Ori));

class OneRegRoundTrip : public ::testing::TestWithParam<Op> {};

TEST_P(OneRegRoundTrip, AllRegisters) {
  for (unsigned rd = 0; rd < 32; ++rd) {
    const Instr in = decode(enc_one_reg(GetParam(), rd), 0);
    ASSERT_EQ(in.op, GetParam());
    ASSERT_EQ(in.rd, rd);
  }
}

INSTANTIATE_TEST_SUITE_P(Ops, OneRegRoundTrip,
                         ::testing::Values(Op::Com, Op::Neg, Op::Swap,
                                           Op::Inc, Op::Dec, Op::Asr,
                                           Op::Lsr, Op::Ror));

TEST(DecodeRoundTrip, Movw) {
  for (unsigned rd = 0; rd < 32; rd += 2) {
    for (unsigned rr = 0; rr < 32; rr += 2) {
      const Instr in = decode(enc_movw(rd, rr), 0);
      ASSERT_EQ(in.op, Op::Movw);
      ASSERT_EQ(in.rd, rd);
      ASSERT_EQ(in.rr, rr);
    }
  }
}

TEST(DecodeRoundTrip, AdiwSbiw) {
  for (std::uint8_t rd : {24, 26, 28, 30}) {
    for (unsigned k = 0; k < 64; ++k) {
      Instr in = decode(enc_adiw(Op::Adiw, rd, k), 0);
      ASSERT_EQ(in.op, Op::Adiw);
      ASSERT_EQ(in.rd, rd);
      ASSERT_EQ(in.k, k);
      in = decode(enc_adiw(Op::Sbiw, rd, k), 0);
      ASSERT_EQ(in.op, Op::Sbiw);
      ASSERT_EQ(in.k, k);
    }
  }
}

TEST(DecodeRoundTrip, InOut) {
  for (unsigned reg = 0; reg < 32; ++reg) {
    for (unsigned addr = 0; addr < 64; ++addr) {
      Instr in = decode(enc_in(reg, addr), 0);
      ASSERT_EQ(in.op, Op::In);
      ASSERT_EQ(in.rd, reg);
      ASSERT_EQ(in.k, addr);
      in = decode(enc_out(addr, reg), 0);
      ASSERT_EQ(in.op, Op::Out);
      ASSERT_EQ(in.rd, reg);
      ASSERT_EQ(in.k, addr);
    }
  }
}

TEST(DecodeRoundTrip, PaperGadgetEncodings) {
  // The exact instructions of Fig. 4: out 0x3e,r29 / out 0x3f,r0 /
  // out 0x3d,r28 and the Fig. 5 stores std Y+1..3, r5..7.
  EXPECT_EQ(decode(enc_out(0x3E, 29), 0).op, Op::Out);
  const Instr std1 = decode(enc_std(true, 1, 5), 0);
  EXPECT_EQ(std1.op, Op::StdY);
  EXPECT_EQ(std1.k, 1);
  EXPECT_EQ(std1.rd, 5);
}

TEST(DecodeRoundTrip, PushPop) {
  for (unsigned reg = 0; reg < 32; ++reg) {
    ASSERT_EQ(decode(enc_push(reg), 0).op, Op::Push);
    ASSERT_EQ(decode(enc_push(reg), 0).rd, reg);
    ASSERT_EQ(decode(enc_pop(reg), 0).op, Op::Pop);
    ASSERT_EQ(decode(enc_pop(reg), 0).rd, reg);
  }
}

TEST(DecodeRoundTrip, LdsSts) {
  for (std::uint16_t addr : {0x0000, 0x0200, 0x21FF, 0xC600, 0xFFFF}) {
    auto [w1, w2] = enc_lds(9, addr);
    Instr in = decode(w1, w2);
    ASSERT_EQ(in.op, Op::Lds);
    ASSERT_EQ(in.rd, 9);
    ASSERT_EQ(in.k, addr);
    ASSERT_EQ(in.size_words, 2);
    auto [s1, s2] = enc_sts(addr, 23);
    in = decode(s1, s2);
    ASSERT_EQ(in.op, Op::Sts);
    ASSERT_EQ(in.rd, 23);
    ASSERT_EQ(in.k, addr);
  }
}

TEST(DecodeRoundTrip, DisplacedLoadStore) {
  for (unsigned reg = 0; reg < 32; ++reg) {
    for (unsigned q = 0; q < 64; q += 3) {
      for (bool y : {true, false}) {
        Instr in = decode(enc_ldd(reg, y, q), 0);
        ASSERT_EQ(in.op, y ? Op::LddY : Op::LddZ);
        ASSERT_EQ(in.rd, reg);
        ASSERT_EQ(in.k, q);
        in = decode(enc_std(y, q, reg), 0);
        ASSERT_EQ(in.op, y ? Op::StdY : Op::StdZ);
        ASSERT_EQ(in.rd, reg);
        ASSERT_EQ(in.k, q);
      }
    }
  }
}

TEST(DecodeRoundTrip, IndirectLoadStore) {
  for (Op op : {Op::LdX, Op::LdXInc, Op::LdXDec, Op::LdYInc, Op::LdYDec,
                Op::LdZInc, Op::LdZDec, Op::StX, Op::StXInc, Op::StXDec,
                Op::StYInc, Op::StYDec, Op::StZInc, Op::StZDec}) {
    for (unsigned reg = 0; reg < 32; reg += 5) {
      const Instr in = decode(enc_ld_st(op, reg), 0);
      ASSERT_EQ(in.op, op);
      ASSERT_EQ(in.rd, reg);
    }
  }
}

TEST(DecodeRoundTrip, RelativeJumps) {
  for (std::int32_t offset : {-2048, -100, -1, 0, 1, 512, 2047}) {
    Instr in = decode(enc_rel_jump(Op::Rjmp, offset), 0);
    ASSERT_EQ(in.op, Op::Rjmp);
    ASSERT_EQ(in.target, offset);
    in = decode(enc_rel_jump(Op::Rcall, offset), 0);
    ASSERT_EQ(in.op, Op::Rcall);
    ASSERT_EQ(in.target, offset);
  }
  EXPECT_THROW(enc_rel_jump(Op::Rjmp, 2048), support::PreconditionError);
  EXPECT_THROW(enc_rel_jump(Op::Rjmp, -2049), support::PreconditionError);
}

TEST(DecodeRoundTrip, AbsoluteJumps) {
  // 22-bit range covers the full 128 Kword ATmega2560 space and beyond.
  for (std::uint32_t target : {0u, 1u, 0xFFFFu, 0x10000u, 0x1FFFFu,
                               0x3FFFFFu}) {
    auto [w1, w2] = enc_abs_jump(Op::Jmp, target);
    Instr in = decode(w1, w2);
    ASSERT_EQ(in.op, Op::Jmp);
    ASSERT_EQ(static_cast<std::uint32_t>(in.target), target);
    ASSERT_EQ(in.size_words, 2);
    auto [c1, c2] = enc_abs_jump(Op::Call, target);
    in = decode(c1, c2);
    ASSERT_EQ(in.op, Op::Call);
    ASSERT_EQ(static_cast<std::uint32_t>(in.target), target);
  }
}

TEST(DecodeRoundTrip, RetargetingPreservesOpcode) {
  auto [w1, w2] = enc_abs_jump(Op::Call, 0x1234);
  auto [n1, n2] = retarget_abs_jump(w1, 0x1ABCD);
  const Instr in = decode(n1, n2);
  EXPECT_EQ(in.op, Op::Call);
  EXPECT_EQ(static_cast<std::uint32_t>(in.target), 0x1ABCDu);
  EXPECT_THROW(retarget_abs_jump(enc_push(0), 0), support::PreconditionError);
}

TEST(DecodeRoundTrip, Branches) {
  for (unsigned bit = 0; bit < 8; ++bit) {
    for (std::int32_t offset : {-64, -1, 0, 33, 63}) {
      Instr in = decode(enc_branch(Op::Brbs, bit, offset), 0);
      ASSERT_EQ(in.op, Op::Brbs);
      ASSERT_EQ(in.bit, bit);
      ASSERT_EQ(in.target, offset);
      in = decode(enc_branch(Op::Brbc, bit, offset), 0);
      ASSERT_EQ(in.op, Op::Brbc);
      ASSERT_EQ(in.target, offset);
    }
  }
  EXPECT_THROW(enc_branch(Op::Brbs, 1, 64), support::PreconditionError);
}

TEST(DecodeRoundTrip, SkipsAndBitOps) {
  for (unsigned bit = 0; bit < 8; ++bit) {
    ASSERT_EQ(decode(enc_skip_reg(Op::Sbrc, 7, bit), 0).op, Op::Sbrc);
    ASSERT_EQ(decode(enc_skip_reg(Op::Sbrs, 7, bit), 0).bit, bit);
    ASSERT_EQ(decode(enc_skip_io(Op::Sbic, 21, bit), 0).op, Op::Sbic);
    ASSERT_EQ(decode(enc_skip_io(Op::Sbis, 21, bit), 0).k, 21);
    ASSERT_EQ(decode(enc_sbi_cbi(Op::Sbi, 13, bit), 0).op, Op::Sbi);
    ASSERT_EQ(decode(enc_sbi_cbi(Op::Cbi, 13, bit), 0).bit, bit);
    ASSERT_EQ(decode(enc_bset_bclr(Op::Bset, bit), 0).op, Op::Bset);
    ASSERT_EQ(decode(enc_bset_bclr(Op::Bclr, bit), 0).bit, bit);
    ASSERT_EQ(decode(enc_bst_bld(Op::Bst, 4, bit), 0).op, Op::Bst);
    ASSERT_EQ(decode(enc_bst_bld(Op::Bld, 4, bit), 0).op, Op::Bld);
  }
}

TEST(DecodeRoundTrip, NoOperandOps) {
  for (Op op : {Op::Nop, Op::Ijmp, Op::Eijmp, Op::Ret, Op::Icall, Op::Reti,
                Op::Eicall, Op::Sleep, Op::Break, Op::Wdr, Op::Spm}) {
    ASSERT_EQ(decode(enc_no_operand(op), 0).op, op);
  }
}

TEST(DecodeRoundTrip, LpmFamily) {
  ASSERT_EQ(decode(enc_lpm(Op::LpmR0, 0), 0).op, Op::LpmR0);
  ASSERT_EQ(decode(enc_lpm(Op::ElpmR0, 0), 0).op, Op::ElpmR0);
  for (unsigned reg = 0; reg < 32; reg += 3) {
    ASSERT_EQ(decode(enc_lpm(Op::Lpm, reg), 0).rd, reg);
    ASSERT_EQ(decode(enc_lpm(Op::LpmInc, reg), 0).op, Op::LpmInc);
    ASSERT_EQ(decode(enc_lpm(Op::Elpm, reg), 0).op, Op::Elpm);
    ASSERT_EQ(decode(enc_lpm(Op::ElpmInc, reg), 0).op, Op::ElpmInc);
  }
}

TEST(Decode, TwoWordDetection) {
  EXPECT_TRUE(avr::is_two_word(enc_lds(0, 0x100).first));
  EXPECT_TRUE(avr::is_two_word(enc_sts(0x100, 0).first));
  EXPECT_TRUE(avr::is_two_word(enc_abs_jump(Op::Jmp, 5).first));
  EXPECT_TRUE(avr::is_two_word(enc_abs_jump(Op::Call, 5).first));
  EXPECT_FALSE(avr::is_two_word(enc_push(3)));
  EXPECT_FALSE(avr::is_two_word(enc_rel_jump(Op::Rjmp, 1)));
  EXPECT_FALSE(avr::is_two_word(0x0000));  // nop
}

TEST(Walk, InstrWordsAgreesWithTheDecoderOnEveryFirstWord) {
  for (std::uint32_t w = 0; w <= 0xFFFF; ++w) {
    const auto first = static_cast<std::uint16_t>(w);
    ASSERT_EQ(avr::instr_words(first, 2), decode(first, 0).size_words) << w;
    ASSERT_EQ(avr::instr_words(first, 1), avr::is_two_word(first) ? 0u : 1u)
        << w;
  }
}

TEST(Walk, TruncatedTailIsReportedAndNeverDecoded) {
  // nop ; lds r0, 0x100 ; the first word of a call, cut off by the end.
  const auto lds = enc_lds(0, 0x100);
  support::Bytes code;
  support::ByteWriter w(code);
  for (std::uint16_t word : {enc_no_operand(Op::Nop), lds.first, lds.second,
                             enc_abs_jump(Op::Call, 0x82).first}) {
    w.u16_le(word);
  }
  std::vector<std::pair<std::uint32_t, Op>> seen;
  const auto record = [&](std::uint32_t addr, const Instr& in) {
    seen.push_back({addr, in.op});
  };
  EXPECT_EQ(avr::for_each_instr(code, 0x200, record), 0x206u);
  EXPECT_EQ(seen, (std::vector<std::pair<std::uint32_t, Op>>{
                      {0x200, Op::Nop}, {0x202, Op::Lds}}));

  // Ending before the call, or on an odd byte, truncates nothing.
  const std::span<const std::uint8_t> bytes(code);
  EXPECT_EQ(avr::for_each_instr(bytes.first(6), 0, record), std::nullopt);
  EXPECT_EQ(avr::for_each_instr(bytes.first(7), 0, record), std::nullopt);
  // An lds cut after its first word is truncated like a call.
  EXPECT_EQ(avr::for_each_instr(bytes.first(4), 0, record), 2u);

  // fn returning false stops the walk; nothing is reported truncated.
  int calls = 0;
  EXPECT_EQ(avr::for_each_instr(code, 0,
                                [&](std::uint32_t, const Instr&) {
                                  ++calls;
                                  return false;
                                }),
            std::nullopt);
  EXPECT_EQ(calls, 1);
}

TEST(Decode, ReservedEncodingsAreInvalid) {
  EXPECT_EQ(decode(0x0001, 0).op, Op::Invalid);   // reserved
  EXPECT_EQ(decode(0x9404, 0).op, Op::Invalid);   // reserved one-reg slot
  EXPECT_EQ(decode(0xFF08, 0).op, Op::Invalid);   // sbrs with bit 3 set high
}

}  // namespace
}  // namespace mavr
