// Decoded-instruction representation for the AVR interpreter and the
// disassembler/patcher. One struct covers the whole implemented ISA; the
// decoder in decode.hpp fills it, the executor in cpu.cpp consumes it.
#pragma once

#include <cstdint>
#include <string_view>

namespace mavr::avr {

/// Implemented AVR instruction set (megaAVR subset sufficient to run the
/// generated autopilot firmware and every gadget the paper uses).
enum class Op : std::uint8_t {
  Invalid,
  // Arithmetic and logic
  Add, Adc, Sub, Subi, Sbc, Sbci, And, Andi, Or, Ori, Eor,
  Com, Neg, Inc, Dec, Mul, Cp, Cpc, Cpi, Cpse,
  Swap, Asr, Lsr, Ror, Adiw, Sbiw,
  // Register transfer
  Mov, Movw, Ldi,
  // Control flow
  Rjmp, Rcall, Jmp, Call, Ijmp, Icall, Eijmp, Eicall, Ret, Reti,
  Brbs, Brbc, Sbrc, Sbrs, Sbic, Sbis,
  // Data transfer
  Lds, Sts,
  LdX, LdXInc, LdXDec, LdYInc, LdYDec, LddY, LdZInc, LdZDec, LddZ,
  StX, StXInc, StXDec, StYInc, StYDec, StdY, StZInc, StZDec, StdZ,
  LpmR0, Lpm, LpmInc, ElpmR0, Elpm, ElpmInc,
  In, Out, Push, Pop,
  // Bit and misc
  Sbi, Cbi, Bset, Bclr, Bst, Bld,
  Nop, Sleep, Break, Wdr, Spm,
};

/// SREG bit indices (for Bset/Bclr/Brbs/Brbc and flag computation).
enum SregBit : std::uint8_t {
  kC = 0, kZ = 1, kN = 2, kV = 3, kS = 4, kH = 5, kT = 6, kI = 7,
};

/// One decoded instruction. Field use depends on `op`:
///  * `rd`, `rr`  — register numbers (or register-pair base for Movw/Adiw)
///  * `k`         — 8-bit immediate, 6-bit I/O address, 6-bit displacement q,
///                  16-bit LDS/STS data address
///  * `bit`       — bit index for bit ops / branch condition
///  * `target`    — signed word offset (Rjmp/Rcall/Brbs/Brbc) or absolute
///                  word address (Jmp/Call)
struct Instr {
  Op op = Op::Invalid;
  std::uint8_t rd = 0;
  std::uint8_t rr = 0;
  std::uint8_t bit = 0;
  std::uint16_t k = 0;
  std::int32_t target = 0;
  std::uint8_t size_words = 1;
};

/// True for the 32-bit encodings (Jmp, Call, Lds, Sts). Inline: the
/// digest's bit-test walk (avr/walk.hpp's instr_words) runs it per word.
inline bool is_two_word(std::uint16_t first_word) {
  // LDS/STS: 1001 00xd dddd 0000 ; JMP/CALL: 1001 010k kkkk 11xk.
  if ((first_word & 0xFC0F) == 0x9000) return true;
  return (first_word & 0xFE0C) == 0x940C;
}

/// Mnemonic for an opcode ("add", "std", ...). For diagnostics and the
/// disassembler.
std::string_view op_name(Op op);

}  // namespace mavr::avr
