#include "avr/decode.hpp"

namespace mavr::avr {

namespace {

// Sign-extends the low `bits` bits of `value`.
std::int32_t sign_extend(std::uint32_t value, unsigned bits) {
  const std::uint32_t mask = 1u << (bits - 1);
  return static_cast<std::int32_t>((value ^ mask)) - static_cast<std::int32_t>(mask);
}

std::uint8_t field_d5(std::uint16_t w) {
  return static_cast<std::uint8_t>((w >> 4) & 0x1F);
}

std::uint8_t field_r5(std::uint16_t w) {
  return static_cast<std::uint8_t>(((w >> 5) & 0x10) | (w & 0x0F));
}

// Immediate-class instructions use r16..r31 encoded in 4 bits.
std::uint8_t field_d4_hi(std::uint16_t w) {
  return static_cast<std::uint8_t>(16 + ((w >> 4) & 0x0F));
}

std::uint16_t field_k8(std::uint16_t w) {
  return static_cast<std::uint16_t>(((w >> 4) & 0xF0) | (w & 0x0F));
}

Instr two_reg(Op op, std::uint16_t w) {
  Instr in;
  in.op = op;
  in.rd = field_d5(w);
  in.rr = field_r5(w);
  return in;
}

Instr imm_reg(Op op, std::uint16_t w) {
  Instr in;
  in.op = op;
  in.rd = field_d4_hi(w);
  in.k = field_k8(w);
  return in;
}

Instr one_reg(Op op, std::uint16_t w) {
  Instr in;
  in.op = op;
  in.rd = field_d5(w);
  return in;
}

// Decodes the 1001 000x / 1001 001x (load/store single register) group.
Instr decode_ldst(std::uint16_t w, std::uint16_t second) {
  const bool store = (w & 0x0200) != 0;
  const std::uint8_t reg = field_d5(w);
  const std::uint8_t mode = static_cast<std::uint8_t>(w & 0x0F);
  Instr in;
  in.rd = reg;
  switch (mode) {
    case 0x0:  // LDS / STS with 16-bit address
      in.op = store ? Op::Sts : Op::Lds;
      in.k = second;
      in.size_words = 2;
      return in;
    case 0x1: in.op = store ? Op::StZInc : Op::LdZInc; return in;
    case 0x2: in.op = store ? Op::StZDec : Op::LdZDec; return in;
    case 0x4:
      if (store) break;
      in.op = Op::Lpm;
      return in;
    case 0x5:
      if (store) break;
      in.op = Op::LpmInc;
      return in;
    case 0x6:
      if (store) break;
      in.op = Op::Elpm;
      return in;
    case 0x7:
      if (store) break;
      in.op = Op::ElpmInc;
      return in;
    case 0x9: in.op = store ? Op::StYInc : Op::LdYInc; return in;
    case 0xA: in.op = store ? Op::StYDec : Op::LdYDec; return in;
    case 0xC: in.op = store ? Op::StX : Op::LdX; return in;
    case 0xD: in.op = store ? Op::StXInc : Op::LdXInc; return in;
    case 0xE: in.op = store ? Op::StXDec : Op::LdXDec; return in;
    case 0xF: in.op = store ? Op::Push : Op::Pop; return in;
    default: break;
  }
  return Instr{};  // Invalid
}

// Decodes the 1001 010x miscellaneous group (one-operand ALU, jumps, ret...).
Instr decode_misc(std::uint16_t w, std::uint16_t second) {
  Instr in;
  // JMP: 1001 010k kkkk 110k + k16 ; CALL: 1001 010k kkkk 111k + k16
  if ((w & 0xFE0E) == 0x940C || (w & 0xFE0E) == 0x940E) {
    const std::uint32_t hi =
        (static_cast<std::uint32_t>((w >> 4) & 0x1F) << 1) | (w & 1);
    in.op = ((w & 0x000E) == 0x000C) ? Op::Jmp : Op::Call;
    in.target = static_cast<std::int32_t>((hi << 16) | second);
    in.size_words = 2;
    return in;
  }
  // One-operand ALU: 1001 010d dddd 0xxx and dddd 1010 (DEC)
  switch (w & 0xFE0F) {
    case 0x9400: return one_reg(Op::Com, w);
    case 0x9401: return one_reg(Op::Neg, w);
    case 0x9402: return one_reg(Op::Swap, w);
    case 0x9403: return one_reg(Op::Inc, w);
    case 0x9405: return one_reg(Op::Asr, w);
    case 0x9406: return one_reg(Op::Lsr, w);
    case 0x9407: return one_reg(Op::Ror, w);
    case 0x940A: return one_reg(Op::Dec, w);
    default: break;
  }
  // BSET/BCLR: 1001 0100 Bsss 1000
  if ((w & 0xFF8F) == 0x9408) {
    in.op = Op::Bset;
    in.bit = static_cast<std::uint8_t>((w >> 4) & 7);
    return in;
  }
  if ((w & 0xFF8F) == 0x9488) {
    in.op = Op::Bclr;
    in.bit = static_cast<std::uint8_t>((w >> 4) & 7);
    return in;
  }
  switch (w) {
    case 0x9409: in.op = Op::Ijmp; return in;
    case 0x9419: in.op = Op::Eijmp; return in;
    case 0x9508: in.op = Op::Ret; return in;
    case 0x9509: in.op = Op::Icall; return in;
    case 0x9518: in.op = Op::Reti; return in;
    case 0x9519: in.op = Op::Eicall; return in;
    case 0x9588: in.op = Op::Sleep; return in;
    case 0x9598: in.op = Op::Break; return in;
    case 0x95A8: in.op = Op::Wdr; return in;
    case 0x95C8: in.op = Op::LpmR0; return in;
    case 0x95D8: in.op = Op::ElpmR0; return in;
    case 0x95E8: in.op = Op::Spm; return in;
    default: break;
  }
  // ADIW: 1001 0110 KKdd KKKK ; SBIW: 1001 0111 KKdd KKKK
  if ((w & 0xFE00) == 0x9600) {
    in.op = (w & 0x0100) ? Op::Sbiw : Op::Adiw;
    in.rd = static_cast<std::uint8_t>(24 + 2 * ((w >> 4) & 3));
    in.k = static_cast<std::uint16_t>(((w >> 2) & 0x30) | (w & 0x0F));
    return in;
  }
  // SBI/CBI/SBIC/SBIS: 1001 10xx AAAA Abbb
  if ((w & 0xFC00) == 0x9800) {
    const std::uint8_t which = static_cast<std::uint8_t>((w >> 8) & 3);
    in.k = static_cast<std::uint16_t>((w >> 3) & 0x1F);
    in.bit = static_cast<std::uint8_t>(w & 7);
    switch (which) {
      case 0: in.op = Op::Cbi; break;
      case 1: in.op = Op::Sbic; break;
      case 2: in.op = Op::Sbi; break;
      case 3: in.op = Op::Sbis; break;
    }
    return in;
  }
  // MUL: 1001 11rd dddd rrrr
  if ((w & 0xFC00) == 0x9C00) return two_reg(Op::Mul, w);
  return Instr{};
}

}  // namespace

Instr decode(std::uint16_t w, std::uint16_t second) {
  Instr in;
  switch (w >> 12) {
    case 0x0:
      if (w == 0x0000) {
        in.op = Op::Nop;
        return in;
      }
      if ((w & 0xFF00) == 0x0100) {  // MOVW
        in.op = Op::Movw;
        in.rd = static_cast<std::uint8_t>(((w >> 4) & 0x0F) * 2);
        in.rr = static_cast<std::uint8_t>((w & 0x0F) * 2);
        return in;
      }
      if ((w & 0xFC00) == 0x0400) return two_reg(Op::Cpc, w);
      if ((w & 0xFC00) == 0x0800) return two_reg(Op::Sbc, w);
      if ((w & 0xFC00) == 0x0C00) return two_reg(Op::Add, w);
      return Instr{};
    case 0x1:
      if ((w & 0xFC00) == 0x1000) return two_reg(Op::Cpse, w);
      if ((w & 0xFC00) == 0x1400) return two_reg(Op::Cp, w);
      if ((w & 0xFC00) == 0x1800) return two_reg(Op::Sub, w);
      return two_reg(Op::Adc, w);
    case 0x2:
      if ((w & 0xFC00) == 0x2000) return two_reg(Op::And, w);
      if ((w & 0xFC00) == 0x2400) return two_reg(Op::Eor, w);
      if ((w & 0xFC00) == 0x2800) return two_reg(Op::Or, w);
      return two_reg(Op::Mov, w);
    case 0x3: return imm_reg(Op::Cpi, w);
    case 0x4: return imm_reg(Op::Sbci, w);
    case 0x5: return imm_reg(Op::Subi, w);
    case 0x6: return imm_reg(Op::Ori, w);
    case 0x7: return imm_reg(Op::Andi, w);
    case 0x8:
    case 0xA: {
      // LDD/STD with displacement: 10q0 qqsd dddd yqqq
      const bool store = (w & 0x0200) != 0;
      const bool use_y = (w & 0x0008) != 0;
      const std::uint16_t q = static_cast<std::uint16_t>(
          ((w >> 8) & 0x20) | ((w >> 7) & 0x18) | (w & 0x07));
      in.rd = field_d5(w);
      in.k = q;
      if (store) {
        in.op = use_y ? Op::StdY : Op::StdZ;
      } else {
        in.op = use_y ? Op::LddY : Op::LddZ;
      }
      return in;
    }
    case 0x9:
      if ((w & 0xFC00) == 0x9000) return decode_ldst(w, second);
      return decode_misc(w, second);
    case 0xB: {
      const std::uint8_t a = static_cast<std::uint8_t>(((w >> 5) & 0x30) | (w & 0x0F));
      in.rd = field_d5(w);
      in.k = a;
      in.op = (w & 0x0800) ? Op::Out : Op::In;
      return in;
    }
    case 0xC:
      in.op = Op::Rjmp;
      in.target = sign_extend(w & 0x0FFF, 12);
      return in;
    case 0xD:
      in.op = Op::Rcall;
      in.target = sign_extend(w & 0x0FFF, 12);
      return in;
    case 0xE:
      return imm_reg(Op::Ldi, w);
    case 0xF:
      if ((w & 0xF800) == 0xF000) {  // BRBS/BRBC
        in.op = (w & 0x0400) ? Op::Brbc : Op::Brbs;
        in.bit = static_cast<std::uint8_t>(w & 7);
        in.target = sign_extend((w >> 3) & 0x7F, 7);
        return in;
      }
      if ((w & 0xFE08) == 0xF800) {  // BLD
        in.op = Op::Bld;
        in.rd = field_d5(w);
        in.bit = static_cast<std::uint8_t>(w & 7);
        return in;
      }
      if ((w & 0xFE08) == 0xFA00) {  // BST
        in.op = Op::Bst;
        in.rd = field_d5(w);
        in.bit = static_cast<std::uint8_t>(w & 7);
        return in;
      }
      if ((w & 0xFE08) == 0xFC00) {  // SBRC
        in.op = Op::Sbrc;
        in.rd = field_d5(w);
        in.bit = static_cast<std::uint8_t>(w & 7);
        return in;
      }
      if ((w & 0xFE08) == 0xFE00) {  // SBRS
        in.op = Op::Sbrs;
        in.rd = field_d5(w);
        in.bit = static_cast<std::uint8_t>(w & 7);
        return in;
      }
      return Instr{};
    default:
      return Instr{};
  }
}

}  // namespace mavr::avr
