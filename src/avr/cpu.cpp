#include "avr/cpu.hpp"

#include <algorithm>
#include <bit>

#include "support/hexdump.hpp"

namespace mavr::avr {

namespace {

/// SREG bit as a mask byte.
constexpr std::uint8_t fb(SregBit bit) {
  return static_cast<std::uint8_t>(1u << bit);
}

// Flag groups recomputed per ALU class. Each group is cleared from a local
// copy of SREG, the fresh bits OR-ed in, and the result written back once —
// setting flags one at a time would cost six read-modify-write round trips
// through the data space per arithmetic instruction.
constexpr std::uint8_t kArithFlags =
    fb(kH) | fb(kC) | fb(kV) | fb(kN) | fb(kZ) | fb(kS);
constexpr std::uint8_t kLogicFlags = fb(kV) | fb(kN) | fb(kZ) | fb(kS);
constexpr std::uint8_t kShiftFlags =
    fb(kC) | fb(kV) | fb(kN) | fb(kZ) | fb(kS);

// Pure SREG calculators, one per flag formula, used by the op definitions
// below.
constexpr std::uint8_t sreg_add(std::uint8_t sreg, std::uint8_t d,
                                std::uint8_t r, std::uint8_t res) {
  // Branchless composition: data-dependent flag bits are close to random,
  // so arithmetic beats branching on them. `res` already encodes any
  // carry-in, so H (the carry into bit 4) and V (signed overflow) are
  // plain XOR extracts, and C comes from the full-adder carry-out identity
  // (d&r) | ((d|r) & ~res). XOR forms also let the compiler drop flags a
  // fused pair's second op overwrites.
  const unsigned h = ((d ^ r ^ res) >> 4) & 1;
  const unsigned v = (((d ^ res) & (r ^ res)) >> 7) & 1;
  const unsigned c = (((d & r) | ((d | r) & ~unsigned{res})) >> 7) & 1;
  const unsigned n = res >> 7;
  const unsigned z = res == 0 ? 1u : 0u;
  return static_cast<std::uint8_t>(
      (sreg & ~unsigned{kArithFlags}) | (c << kC) | (z << kZ) | (n << kN) |
      (v << kV) | ((n ^ v) << kS) | (h << kH));
}

constexpr std::uint8_t sreg_sub(std::uint8_t sreg, std::uint8_t d,
                                std::uint8_t r, std::uint8_t res,
                                bool keep_z) {
  // Mirror of sreg_add: H is the borrow into bit 4, V the signed
  // overflow, C from the borrow-out identity (~d&r) | ((~d|r) & res).
  const unsigned nd = ~unsigned{d};
  const unsigned h = ((d ^ r ^ res) >> 4) & 1;
  const unsigned v = (((d ^ r) & (d ^ res)) >> 7) & 1;
  const unsigned c = (((nd & r) | ((nd | r) & res)) >> 7) & 1;
  const unsigned n = res >> 7;
  // SBC/SBCI/CPC only clear Z, never set it (multi-byte compare semantics):
  // with keep_z the old Z gates the new one.
  const unsigned zgate = keep_z ? (sreg >> kZ) & 1u : 1u;
  const unsigned z = res == 0 ? zgate : 0u;
  return static_cast<std::uint8_t>(
      (sreg & ~unsigned{kArithFlags}) | (c << kC) | (z << kZ) | (n << kN) |
      (v << kV) | ((n ^ v) << kS) | (h << kH));
}

constexpr std::uint8_t sreg_logic(std::uint8_t sreg, std::uint8_t res) {
  const unsigned n = res >> 7;
  const unsigned z = res == 0 ? 1u : 0u;
  return static_cast<std::uint8_t>((sreg & ~unsigned{kLogicFlags}) |
                                   (z << kZ) | (n << kN) |
                                   (n << kS));  // S = N ^ V with V = 0
}

// The one-operand and word calculators below compose their bits the same
// branchless way as sreg_add: every flag is a 0/1 value shifted into place.
constexpr std::uint8_t sreg_mul(std::uint8_t sreg, std::uint16_t res) {
  const unsigned c = res >> 15;
  const unsigned z = res == 0 ? 1u : 0u;
  return static_cast<std::uint8_t>((sreg & ~unsigned{fb(kC) | fb(kZ)}) |
                                   (c << kC) | (z << kZ));
}

constexpr std::uint8_t sreg_com(std::uint8_t sreg, std::uint8_t res) {
  // C always set, V cleared, S = N.
  const unsigned n = res >> 7;
  const unsigned z = res == 0 ? 1u : 0u;
  return static_cast<std::uint8_t>(
      (sreg & ~unsigned{kLogicFlags | fb(kC)}) | fb(kC) | (z << kZ) |
      (n << kN) | (n << kS));
}

constexpr std::uint8_t sreg_neg(std::uint8_t sreg, std::uint8_t d,
                                std::uint8_t res) {
  const unsigned n = res >> 7;
  const unsigned v = res == 0x80 ? 1u : 0u;
  const unsigned z = res == 0 ? 1u : 0u;
  const unsigned h = ((res | d) >> 3) & 1;
  return static_cast<std::uint8_t>(
      (sreg & ~unsigned{kArithFlags}) | ((z ^ 1) << kC) | (z << kZ) |
      (n << kN) | (v << kV) | ((n ^ v) << kS) | (h << kH));
}

/// INC and DEC differ only in the operand that overflows (0x80 / 0x7F).
constexpr std::uint8_t sreg_inc_dec(std::uint8_t sreg, std::uint8_t res,
                                    std::uint8_t overflow) {
  const unsigned n = res >> 7;
  const unsigned v = res == overflow ? 1u : 0u;
  const unsigned z = res == 0 ? 1u : 0u;
  return static_cast<std::uint8_t>((sreg & ~unsigned{kLogicFlags}) |
                                   (z << kZ) | (n << kN) | (v << kV) |
                                   ((n ^ v) << kS));
}

/// ASR, ROR and LSR share this: C from the shifted-out bit, V = N ^ C,
/// and so S = N ^ V = C.
constexpr std::uint8_t sreg_shift(std::uint8_t sreg, std::uint8_t d,
                                  std::uint8_t res) {
  const unsigned c = d & 1u;
  const unsigned n = res >> 7;
  const unsigned z = res == 0 ? 1u : 0u;
  return static_cast<std::uint8_t>((sreg & ~unsigned{kShiftFlags}) |
                                   (c << kC) | (z << kZ) | (n << kN) |
                                   ((n ^ c) << kV) | (c << kS));
}

/// ADIW (`sub` false) and SBIW (`sub` true): bit 15 of the operand and the
/// result give V and C.
constexpr std::uint8_t sreg_word(std::uint8_t sreg, std::uint16_t d,
                                 std::uint16_t res, bool sub) {
  const unsigned dh = d >> 15, r = res >> 15;
  const unsigned v = sub ? (dh & (r ^ 1)) : ((dh ^ 1) & r);
  const unsigned c = sub ? (r & (dh ^ 1)) : ((r ^ 1) & dh);
  const unsigned z = res == 0 ? 1u : 0u;
  return static_cast<std::uint8_t>((sreg & ~unsigned{kShiftFlags}) |
                                   (c << kC) | (z << kZ) | (r << kN) |
                                   (v << kV) | ((r ^ v) << kS));
}

// --- One definition per op ---------------------------------------------------
// Every instruction's architectural effect is written once, below, and
// called by both execution loops: the interpreter (step_impl) and the
// superblock tier (run_tier). Only the memory discipline differs, and it
// is a parameter (`Mem`): the interpreter's Cpu::Bus goes through
// DataMemory (I/O dispatch, wrap, tracer hooks), the tier's PlainRam only
// admits plain SRAM and side-exits on anything else. The op lists in
// tier.hpp generate the calls.

#define MAVR_AVR_OP [[gnu::always_inline]] inline

MAVR_AVR_OP std::uint16_t pair_at(const std::uint8_t* ram, unsigned lo) {
  return static_cast<std::uint16_t>(ram[lo] | (ram[lo + 1] << 8));
}
MAVR_AVR_OP void set_pair_at(std::uint8_t* ram, unsigned lo,
                             std::uint16_t value) {
  ram[lo] = static_cast<std::uint8_t>(value & 0xFF);
  ram[lo + 1] = static_cast<std::uint8_t>(value >> 8);
}

// Register and immediate ops (MAVR_AVR_REG_OPS): (ram, SREG, Rd, B, K) ->
// new SREG, where B is Rr or a bit index. Carry-in is SREG bit 0 (kC).
#define MAVR_REG_OP(name)                                                 \
  MAVR_AVR_OP std::uint8_t ex_##name(std::uint8_t* ram, std::uint8_t s,   \
                                     std::uint8_t d, std::uint8_t r,      \
                                     std::uint16_t k)

MAVR_REG_OP(Add) {
  (void)k;
  const std::uint8_t a = ram[d], b = ram[r];
  const std::uint8_t res = static_cast<std::uint8_t>(a + b);
  ram[d] = res;
  return sreg_add(s, a, b, res);
}
MAVR_REG_OP(Adc) {
  (void)k;
  const std::uint8_t a = ram[d], b = ram[r];
  const std::uint8_t res = static_cast<std::uint8_t>(a + b + (s & 1));
  ram[d] = res;
  return sreg_add(s, a, b, res);
}
MAVR_REG_OP(Sub) {
  (void)k;
  const std::uint8_t a = ram[d], b = ram[r];
  const std::uint8_t res = static_cast<std::uint8_t>(a - b);
  ram[d] = res;
  return sreg_sub(s, a, b, res, /*keep_z=*/false);
}
MAVR_REG_OP(Sbc) {
  (void)k;
  const std::uint8_t a = ram[d], b = ram[r];
  const std::uint8_t res = static_cast<std::uint8_t>(a - b - (s & 1));
  ram[d] = res;
  return sreg_sub(s, a, b, res, /*keep_z=*/true);
}
MAVR_REG_OP(And) {
  (void)k;
  const std::uint8_t res = ram[d] & ram[r];
  ram[d] = res;
  return sreg_logic(s, res);
}
MAVR_REG_OP(Or) {
  (void)k;
  const std::uint8_t res = ram[d] | ram[r];
  ram[d] = res;
  return sreg_logic(s, res);
}
MAVR_REG_OP(Eor) {
  (void)k;
  const std::uint8_t res = ram[d] ^ ram[r];
  ram[d] = res;
  return sreg_logic(s, res);
}
MAVR_REG_OP(Mov) {
  (void)k;
  ram[d] = ram[r];
  return s;
}
MAVR_REG_OP(Movw) {
  (void)k;
  ram[d] = ram[r];
  ram[d + 1] = ram[r + 1];
  return s;
}
MAVR_REG_OP(Mul) {
  (void)k;
  const std::uint16_t res =
      static_cast<std::uint16_t>(unsigned{ram[d]} * ram[r]);
  ram[0] = static_cast<std::uint8_t>(res & 0xFF);
  ram[1] = static_cast<std::uint8_t>(res >> 8);
  return sreg_mul(s, res);
}
MAVR_REG_OP(Cp) {
  (void)k;
  const std::uint8_t a = ram[d], b = ram[r];
  return sreg_sub(s, a, b, static_cast<std::uint8_t>(a - b), false);
}
MAVR_REG_OP(Cpc) {
  (void)k;
  const std::uint8_t a = ram[d], b = ram[r];
  return sreg_sub(s, a, b, static_cast<std::uint8_t>(a - b - (s & 1)),
                  /*keep_z=*/true);
}
MAVR_REG_OP(Ldi) {
  (void)r;
  ram[d] = static_cast<std::uint8_t>(k);
  return s;
}
MAVR_REG_OP(Subi) {
  (void)r;
  const std::uint8_t a = ram[d], b = static_cast<std::uint8_t>(k);
  const std::uint8_t res = static_cast<std::uint8_t>(a - b);
  ram[d] = res;
  return sreg_sub(s, a, b, res, false);
}
MAVR_REG_OP(Sbci) {
  (void)r;
  const std::uint8_t a = ram[d], b = static_cast<std::uint8_t>(k);
  const std::uint8_t res = static_cast<std::uint8_t>(a - b - (s & 1));
  ram[d] = res;
  return sreg_sub(s, a, b, res, /*keep_z=*/true);
}
MAVR_REG_OP(Andi) {
  (void)r;
  const std::uint8_t res = ram[d] & static_cast<std::uint8_t>(k);
  ram[d] = res;
  return sreg_logic(s, res);
}
MAVR_REG_OP(Ori) {
  (void)r;
  const std::uint8_t res = ram[d] | static_cast<std::uint8_t>(k);
  ram[d] = res;
  return sreg_logic(s, res);
}
MAVR_REG_OP(Cpi) {
  (void)r;
  const std::uint8_t a = ram[d], b = static_cast<std::uint8_t>(k);
  return sreg_sub(s, a, b, static_cast<std::uint8_t>(a - b), false);
}
MAVR_REG_OP(Com) {
  (void)r, (void)k;
  const std::uint8_t res = static_cast<std::uint8_t>(~ram[d]);
  ram[d] = res;
  return sreg_com(s, res);
}
MAVR_REG_OP(Neg) {
  (void)r, (void)k;
  const std::uint8_t a = ram[d];
  const std::uint8_t res = static_cast<std::uint8_t>(0 - a);
  ram[d] = res;
  return sreg_neg(s, a, res);
}
MAVR_REG_OP(Inc) {
  (void)r, (void)k;
  const std::uint8_t res = static_cast<std::uint8_t>(ram[d] + 1);
  ram[d] = res;
  return sreg_inc_dec(s, res, 0x80);
}
MAVR_REG_OP(Dec) {
  (void)r, (void)k;
  const std::uint8_t res = static_cast<std::uint8_t>(ram[d] - 1);
  ram[d] = res;
  return sreg_inc_dec(s, res, 0x7F);
}
MAVR_REG_OP(Swap) {
  (void)r, (void)k;
  const std::uint8_t a = ram[d];
  ram[d] = static_cast<std::uint8_t>((a << 4) | (a >> 4));
  return s;
}
MAVR_REG_OP(Asr) {
  (void)r, (void)k;
  const std::uint8_t a = ram[d];
  const std::uint8_t res = static_cast<std::uint8_t>((a >> 1) | (a & 0x80));
  ram[d] = res;
  return sreg_shift(s, a, res);
}
MAVR_REG_OP(Lsr) {
  (void)r, (void)k;
  const std::uint8_t a = ram[d];
  const std::uint8_t res = static_cast<std::uint8_t>(a >> 1);
  ram[d] = res;
  return sreg_shift(s, a, res);
}
MAVR_REG_OP(Ror) {
  (void)r, (void)k;
  const std::uint8_t a = ram[d];
  const std::uint8_t res = static_cast<std::uint8_t>((a >> 1) | ((s & 1) << 7));
  ram[d] = res;
  return sreg_shift(s, a, res);
}
MAVR_REG_OP(Adiw) {
  (void)r;
  const std::uint16_t a = pair_at(ram, d);
  const std::uint16_t res = static_cast<std::uint16_t>(a + k);
  set_pair_at(ram, d, res);
  return sreg_word(s, a, res, /*sub=*/false);
}
MAVR_REG_OP(Sbiw) {
  (void)r;
  const std::uint16_t a = pair_at(ram, d);
  const std::uint16_t res = static_cast<std::uint16_t>(a - k);
  set_pair_at(ram, d, res);
  return sreg_word(s, a, res, /*sub=*/true);
}
MAVR_REG_OP(Bset) {
  (void)ram, (void)d, (void)k;
  return static_cast<std::uint8_t>(s | (1u << r));
}
MAVR_REG_OP(Bclr) {
  (void)ram, (void)d, (void)k;
  return static_cast<std::uint8_t>(s & ~(1u << r));
}
MAVR_REG_OP(Bst) {
  (void)k;
  return static_cast<std::uint8_t>((s & ~fb(kT)) |
                                   (((ram[d] >> r) & 1u) << kT));
}
MAVR_REG_OP(Bld) {
  (void)k;
  const std::uint8_t bit = static_cast<std::uint8_t>(1u << r);
  ram[d] = (s & fb(kT)) ? static_cast<std::uint8_t>(ram[d] | bit)
                        : static_cast<std::uint8_t>(ram[d] & ~bit);
  return s;
}
#undef MAVR_REG_OP

// Memory ops (MAVR_AVR_MEM_OPS): (ram, mem, Rd, K) -> false, with nothing
// changed, when `mem.admit` refused the address.

/// Pointer-addressed LD/ST through X/Y/Z: the effective address, then the
/// write-back in hardware order — a pre-decremented pointer is written
/// before the access, a post-incremented one after it. With Rd inside the
/// pointer pair the order is observable.
enum class PtrMode : std::uint8_t { kPlain, kInc, kDec, kDisp };

template <unsigned kLo, PtrMode kMode, bool kStore, class Mem>
MAVR_AVR_OP bool ptr_op(std::uint8_t* ram, Mem& mem, std::uint8_t reg,
                        std::uint16_t q) {
  std::uint16_t p = pair_at(ram, kLo);
  if constexpr (kMode == PtrMode::kDec) p = static_cast<std::uint16_t>(p - 1);
  const std::uint16_t addr =
      kMode == PtrMode::kDisp ? static_cast<std::uint16_t>(p + q) : p;
  if (!mem.admit(addr)) return false;
  if constexpr (kMode == PtrMode::kDec) set_pair_at(ram, kLo, p);
  if constexpr (kStore) {
    mem.store(addr, ram[reg]);
  } else {
    ram[reg] = mem.load(addr);
  }
  if constexpr (kMode == PtrMode::kInc) {
    set_pair_at(ram, kLo, static_cast<std::uint16_t>(p + 1));
  }
  return true;
}

/// LPM/ELPM: program-memory byte at Z (ELPM: RAMPZ:Z), then the
/// post-increment, which ELPM carries into RAMPZ.
template <bool kExt, bool kInc, class Mem>
MAVR_AVR_OP bool lpm_op(std::uint8_t* ram, Mem& mem, std::uint8_t reg) {
  const std::uint32_t z =
      (kExt ? std::uint32_t{ram[kAddrRampz]} << 16 : 0) | pair_at(ram, 30);
  ram[reg] = mem.flash_byte(z);
  if constexpr (kInc) {
    const std::uint32_t z1 = z + 1;
    set_pair_at(ram, 30, static_cast<std::uint16_t>(z1 & 0xFFFF));
    if constexpr (kExt) {
      ram[kAddrRampz] = static_cast<std::uint8_t>((z1 >> 16) & 0xFF);
    }
  }
  return true;
}

MAVR_AVR_OP std::uint16_t sp_at(const std::uint8_t* ram) {
  return pair_at(ram, kAddrSpl);
}
MAVR_AVR_OP void set_sp_at(std::uint8_t* ram, std::uint16_t sp) {
  set_pair_at(ram, kAddrSpl, sp);
}

#define MAVR_MEM_OP(name)                                                  \
  template <class Mem>                                                     \
  MAVR_AVR_OP bool ex_##name(std::uint8_t* ram, Mem& mem, std::uint8_t d,  \
                             std::uint16_t k)
MAVR_MEM_OP(LdX) { return ptr_op<26, PtrMode::kPlain, false>(ram, mem, d, k); }
MAVR_MEM_OP(LdXInc) { return ptr_op<26, PtrMode::kInc, false>(ram, mem, d, k); }
MAVR_MEM_OP(LdXDec) { return ptr_op<26, PtrMode::kDec, false>(ram, mem, d, k); }
MAVR_MEM_OP(LdYInc) { return ptr_op<28, PtrMode::kInc, false>(ram, mem, d, k); }
MAVR_MEM_OP(LdYDec) { return ptr_op<28, PtrMode::kDec, false>(ram, mem, d, k); }
MAVR_MEM_OP(LddY) { return ptr_op<28, PtrMode::kDisp, false>(ram, mem, d, k); }
MAVR_MEM_OP(LdZInc) { return ptr_op<30, PtrMode::kInc, false>(ram, mem, d, k); }
MAVR_MEM_OP(LdZDec) { return ptr_op<30, PtrMode::kDec, false>(ram, mem, d, k); }
MAVR_MEM_OP(LddZ) { return ptr_op<30, PtrMode::kDisp, false>(ram, mem, d, k); }
MAVR_MEM_OP(StX) { return ptr_op<26, PtrMode::kPlain, true>(ram, mem, d, k); }
MAVR_MEM_OP(StXInc) { return ptr_op<26, PtrMode::kInc, true>(ram, mem, d, k); }
MAVR_MEM_OP(StXDec) { return ptr_op<26, PtrMode::kDec, true>(ram, mem, d, k); }
MAVR_MEM_OP(StYInc) { return ptr_op<28, PtrMode::kInc, true>(ram, mem, d, k); }
MAVR_MEM_OP(StYDec) { return ptr_op<28, PtrMode::kDec, true>(ram, mem, d, k); }
MAVR_MEM_OP(StdY) { return ptr_op<28, PtrMode::kDisp, true>(ram, mem, d, k); }
MAVR_MEM_OP(StZInc) { return ptr_op<30, PtrMode::kInc, true>(ram, mem, d, k); }
MAVR_MEM_OP(StZDec) { return ptr_op<30, PtrMode::kDec, true>(ram, mem, d, k); }
MAVR_MEM_OP(StdZ) { return ptr_op<30, PtrMode::kDisp, true>(ram, mem, d, k); }
MAVR_MEM_OP(LpmR0) {
  (void)d, (void)k;
  return lpm_op<false, false>(ram, mem, 0);
}
MAVR_MEM_OP(Lpm) { (void)k; return lpm_op<false, false>(ram, mem, d); }
MAVR_MEM_OP(LpmInc) { (void)k; return lpm_op<false, true>(ram, mem, d); }
MAVR_MEM_OP(ElpmR0) {
  (void)d, (void)k;
  return lpm_op<true, false>(ram, mem, 0);
}
MAVR_MEM_OP(Elpm) { (void)k; return lpm_op<true, false>(ram, mem, d); }
MAVR_MEM_OP(ElpmInc) { (void)k; return lpm_op<true, true>(ram, mem, d); }
// PUSH/POP: stack traffic, which tracers see through on_sp_change rather
// than on_load/on_store.
MAVR_MEM_OP(Push) {
  (void)k;
  const std::uint16_t sp = sp_at(ram);
  if (!mem.admit(sp)) return false;
  mem.stack_store(sp, ram[d]);
  set_sp_at(ram, static_cast<std::uint16_t>(sp - 1));
  return true;
}
MAVR_MEM_OP(Pop) {
  (void)k;
  const std::uint16_t sp = static_cast<std::uint16_t>(sp_at(ram) + 1);
  if (!mem.admit(sp)) return false;
  set_sp_at(ram, sp);
  ram[d] = mem.stack_load(sp);
  return true;
}
#undef MAVR_MEM_OP

// Static-address data transfer: LDS/IN, STS/OUT, SBI, CBI.
template <class Mem>
MAVR_AVR_OP void ex_load(std::uint8_t* ram, Mem& mem, std::uint8_t d,
                         std::uint32_t addr) {
  ram[d] = mem.load(addr);
}
template <class Mem>
MAVR_AVR_OP void ex_store(const std::uint8_t* ram, Mem& mem, std::uint8_t r,
                          std::uint32_t addr) {
  mem.store(addr, ram[r]);
}
template <class Mem>
MAVR_AVR_OP void ex_sbi(Mem& mem, std::uint32_t addr, std::uint8_t bit) {
  mem.store(addr, static_cast<std::uint8_t>(mem.load(addr) | (1u << bit)));
}
template <class Mem>
MAVR_AVR_OP void ex_cbi(Mem& mem, std::uint32_t addr, std::uint8_t bit) {
  mem.store(addr, static_cast<std::uint8_t>(mem.load(addr) & ~(1u << bit)));
}

// Branch and skip conditions (BRBS/BRBC, CPSE, SBRC/SBRS, and SBIC/SBIS on
// a byte already loaded): true when the branch is taken or the next
// instruction skipped.
MAVR_AVR_OP bool taken_brbs(std::uint8_t s, std::uint8_t bit) {
  return (s >> bit) & 1;
}
MAVR_AVR_OP bool taken_cpse(const std::uint8_t* ram, std::uint8_t d,
                            std::uint8_t r) {
  return ram[d] == ram[r];
}
MAVR_AVR_OP bool bit_set(std::uint8_t value, std::uint8_t bit) {
  return (value >> bit) & 1;
}

/// IJMP/ICALL target (Z) and EIJMP/EICALL target (EIND:Z), unmasked.
MAVR_AVR_OP std::uint32_t target_z(const std::uint8_t* ram) {
  return pair_at(ram, 30);
}
MAVR_AVR_OP std::uint32_t target_eind_z(const std::uint8_t* ram) {
  return (std::uint32_t{ram[kAddrEind]} << 16) | pair_at(ram, 30);
}

/// Return-address push for CALL/RCALL/ICALL/EICALL and interrupts, when
/// all `n` bytes land in plain RAM (at or above the I/O region, below the
/// data-space end): then no byte can hit a device handler, wrap, or alias
/// SPL/SPH, so writing them in one go equals the byte-at-a-time sequence.
/// The LSB goes first, so ascending memory reads big-endian — the byte
/// order every ROP payload in the paper (Fig. 6) relies on. Returns false,
/// having written nothing, for a stack anywhere else.
MAVR_AVR_OP bool push_ret_ram(std::uint8_t* ram, std::uint32_t ret,
                              unsigned n, std::uint32_t data_size) {
  const std::uint32_t sp = sp_at(ram);
  if (sp < kExtIoEnd + (n - 1) || sp >= data_size) return false;
  ram[sp] = static_cast<std::uint8_t>(ret & 0xFF);
  ram[sp - 1] = static_cast<std::uint8_t>((ret >> 8) & 0xFF);
  if (n == 3) ram[sp - 2] = static_cast<std::uint8_t>((ret >> 16) & 0xFF);
  set_sp_at(ram, static_cast<std::uint16_t>(sp - n));
  return true;
}

/// The matching RET/RETI pop under the same plain-RAM condition. `raw` is
/// the popped value before PC masking.
MAVR_AVR_OP bool pop_ret_ram(std::uint8_t* ram, unsigned n,
                             std::uint32_t data_size, std::uint32_t& raw) {
  const std::uint32_t sp = sp_at(ram);
  if (sp + 1 < kExtIoEnd || sp + n >= data_size) return false;
  std::uint32_t value = 0;
  for (unsigned i = 1; i <= n; ++i) value = (value << 8) | ram[sp + i];
  set_sp_at(ram, static_cast<std::uint16_t>(sp + n));
  raw = value;
  return true;
}

/// The tier's memory discipline: plain SRAM only. `admit` sends every
/// address outside [kExtIoEnd, data-space end) — register file, I/O,
/// SP/SREG aliasing, wrap — to a side exit before the op changed anything,
/// and the interpreter redoes the instruction with full semantics.
struct PlainRam {
  std::uint8_t* ram;
  std::uint32_t span;  ///< data-space size - kExtIoEnd
  const ProgramMemory& flash;

  bool admit(std::uint32_t addr) const { return addr - kExtIoEnd < span; }
  std::uint8_t load(std::uint32_t addr) const { return ram[addr]; }
  void store(std::uint32_t addr, std::uint8_t v) const { ram[addr] = v; }
  std::uint8_t stack_load(std::uint32_t addr) const { return ram[addr]; }
  void stack_store(std::uint32_t addr, std::uint8_t v) const {
    ram[addr] = v;
  }
  std::uint8_t flash_byte(std::uint32_t addr) const {
    return flash.byte(addr);
  }
};

/// One half of a fused pair: a register op or a plain-RAM LDS/STS, run
/// through its own definition.
template <TierOpKind K>
MAVR_AVR_OP std::uint8_t pair_half(PlainRam& plain, std::uint8_t s,
                                   const TierOp& o) {
  if constexpr (K == TierOpKind::kLdsRam) {
    ex_load(plain.ram, plain, o.a, o.k);
    return s;
  } else if constexpr (K == TierOpKind::kStsRam) {
    ex_store(plain.ram, plain, o.a, o.k);
    return s;
  }
#define MAVR_PAIR_HALF(name, ...)                       \
  else if constexpr (K == TierOpKind::k##name) {        \
    return ex_##name(plain.ram, s, o.a, o.b, o.k);      \
  }
  MAVR_AVR_REG_OPS(MAVR_PAIR_HALF)
#undef MAVR_PAIR_HALF
  else {
    static_assert(K != K, "a fused pair joins register ops and plain moves");
  }
}
}  // namespace

namespace {
/// Decode-cache sentinel: size_words == 0 never comes out of decode().
constexpr Instr kUndecoded{.op = Op::Invalid,
                           .rd = 0,
                           .rr = 0,
                           .bit = 0,
                           .k = 0,
                           .target = 0,
                           .size_words = 0};
// The cache lives on zero pages, so an untouched slot must read as the
// sentinel: every field of kUndecoded is zero.
static_assert(static_cast<std::uint8_t>(kUndecoded.op) == 0 &&
                  kUndecoded.rd == 0 && kUndecoded.rr == 0 &&
                  kUndecoded.bit == 0 && kUndecoded.k == 0 &&
                  kUndecoded.target == 0 && kUndecoded.size_words == 0,
              "kUndecoded must be the all-zero byte pattern");
}  // namespace

Cpu::Cpu(const McuSpec& spec)
    : spec_(spec),
      flash_(spec),
      data_(spec, io_),
      eeprom_(spec),
      ram_(data_.raw_data()),
      data_size_(spec.data_space_bytes()),
      push_bytes_(static_cast<std::uint8_t>(spec.pc_push_bytes)),
      pc_mask_(spec.flash_words() - 1),
      cache_(spec.flash_words()) {
  MAVR_CHECK(std::has_single_bit(spec.flash_words()),
             "flash word count must be a power of two for PC wrapping");
  io_.bind_backing(data_.raw_data());
  cache_generation_ = flash_.generation();
  reset();
}

void Cpu::power_on() {
  flash_.erase();
  eeprom_.erase();
  cycles_ = 0;
  retired_ = 0;
  interrupts_taken_ = 0;
  tracer_ = nullptr;
  exec_tier_ = true;
  tier_.power_on();
  io_.power_on();
  reset();
}

Cpu::Snapshot Cpu::save() const {
  return Snapshot{
      .pc = pc_,
      .cycles = cycles_,
      .retired = retired_,
      .interrupts_taken = interrupts_taken_,
      .state = state_,
      .fault = fault_,
      .last_ret_raw_words = last_ret_raw_words_,
      .last_ret_wrapped = last_ret_wrapped_,
      .data = support::Bytes(ram_, ram_ + data_size_),
      .eeprom = eeprom_,
      .io = io_.state(),
  };
}

void Cpu::restore(const Snapshot& snapshot) {
  MAVR_REQUIRE(snapshot.data.size() == data_size_ &&
                   snapshot.eeprom.size() == eeprom_.size(),
               "snapshot of a different part");
  pc_ = snapshot.pc;
  cycles_ = snapshot.cycles;
  retired_ = snapshot.retired;
  interrupts_taken_ = snapshot.interrupts_taken;
  state_ = snapshot.state;
  fault_ = snapshot.fault;
  last_ret_raw_words_ = snapshot.last_ret_raw_words;
  last_ret_wrapped_ = snapshot.last_ret_wrapped;
  std::copy(snapshot.data.begin(), snapshot.data.end(), ram_);
  eeprom_ = snapshot.eeprom;
  io_.restore(snapshot.io);
}

void Cpu::reset() {
  data_.clear();
  io_.restore_latches();
  pc_ = 0;
  set_sp(static_cast<std::uint16_t>(spec_.ramend()));
  state_ = CpuState::Running;
  fault_ = FaultInfo{};
  last_ret_raw_words_ = 0;
  last_ret_wrapped_ = false;
}

const Instr& Cpu::decoded(std::uint32_t word_addr) {
  Instr& in = cache_[word_addr];
  if (in.size_words == 0) [[unlikely]] fill_decode_slot(word_addr);
  return in;
}

// Kept out of line: decoded() runs once per interpreted instruction, and
// with the miss path inlined its hit path needs a full stack frame.
[[gnu::noinline]] void Cpu::fill_decode_slot(std::uint32_t word_addr) {
  cache_[word_addr] = decode(flash_.word(word_addr),
                             flash_.word((word_addr + 1) & pc_mask_));
  decoded_words_.push_back(word_addr);
}

void Cpu::sync_decode_cache() {
  if (cache_generation_ != flash_.generation()) {
    for (const std::uint32_t w : decoded_words_) cache_[w] = kUndecoded;
    decoded_words_.clear();
    cache_generation_ = flash_.generation();
  }
}

void Cpu::push_byte(std::uint8_t value) {
  // Stack traffic is deliberately not routed through load_mem/store_mem:
  // tracers observe it via on_sp_change / on_call / on_ret instead, keeping
  // on_load/on_store scoped to the program's explicit data accesses.
  const std::uint16_t sp_now = sp();
  data_.store(sp_now, value);
  set_sp(static_cast<std::uint16_t>(sp_now - 1));
}

std::uint8_t Cpu::pop_byte() {
  const std::uint16_t sp_now = static_cast<std::uint16_t>(sp() + 1);
  set_sp(sp_now);
  return data_.load(sp_now);
}

void Cpu::push_pc(std::uint32_t ret_words) {
  if (push_ret_ram(ram_, ret_words, push_bytes_, data_size_)) [[likely]] {
    return;
  }
  // A stack pivoted into the I/O region or off the end takes the general
  // path, which re-reads SP between bytes: a push that rewrites SPL
  // redirects the bytes that follow, and the ROP payloads depend on that.
  push_byte(static_cast<std::uint8_t>(ret_words & 0xFF));
  push_byte(static_cast<std::uint8_t>((ret_words >> 8) & 0xFF));
  if (push_bytes_ == 3) {
    push_byte(static_cast<std::uint8_t>((ret_words >> 16) & 0xFF));
  }
}

std::uint32_t Cpu::pop_pc() {
  // Returns the raw popped value; callers apply pc_mask_. Preserving the
  // unmasked bytes lets a wild return from a smashed stack be diagnosed
  // instead of silently wrapping into valid flash.
  std::uint32_t value = 0;
  if (pop_ret_ram(ram_, push_bytes_, data_size_, value)) [[likely]] {
    return value;
  }
  if (push_bytes_ == 3) value = pop_byte();
  value = (value << 8) | pop_byte();
  value = (value << 8) | pop_byte();
  return value;
}

void Cpu::record_ret(std::uint32_t raw) {
  last_ret_raw_words_ = raw;
  last_ret_wrapped_ = (raw & ~pc_mask_) != 0;
}

std::uint32_t Cpu::skip_target(std::uint32_t next_pc) const {
  // Skip over the next instruction: 1 or 2 words.
  const std::uint16_t w = flash_.word(next_pc);
  return (next_pc + (is_two_word(w) ? 2 : 1)) & pc_mask_;
}

void Cpu::fault_now(std::uint32_t pc_words, std::uint16_t opcode,
                    std::string reason) {
  state_ = CpuState::Faulted;
  fault_.pc_words = pc_words;
  fault_.opcode = opcode;
  fault_.reason = std::move(reason);
  fault_.cycle = cycles_;
  fault_.last_ret_raw_words = last_ret_raw_words_;
  fault_.last_ret_wrapped = last_ret_wrapped_;
}

template <bool kTraced>
std::uint8_t Cpu::load_mem(std::uint32_t addr) {
  const std::uint8_t value = data_.load(addr);
  if constexpr (kTraced) tracer_->on_load(*this, addr, value);
  return value;
}

template <bool kTraced>
void Cpu::store_mem(std::uint32_t addr, std::uint8_t value) {
  data_.store(addr, value);
  if constexpr (kTraced) tracer_->on_store(*this, addr, value);
}

/// The interpreter's memory discipline: every access through DataMemory
/// (I/O dispatch, data-space wrap), and program loads/stores also through
/// the tracer hooks when kTraced. It admits every address.
template <bool kTraced>
struct Cpu::Bus {
  Cpu& cpu;

  static bool admit(std::uint32_t) { return true; }
  std::uint8_t load(std::uint32_t addr) const {
    return cpu.load_mem<kTraced>(addr);
  }
  void store(std::uint32_t addr, std::uint8_t v) const {
    cpu.store_mem<kTraced>(addr, v);
  }
  std::uint8_t stack_load(std::uint32_t addr) const {
    return cpu.data_.load(addr);
  }
  void stack_store(std::uint32_t addr, std::uint8_t v) const {
    cpu.data_.store(addr, v);
  }
  std::uint8_t flash_byte(std::uint32_t addr) const {
    return cpu.flash_.byte(addr);
  }
};

// The interpreter body is instantiated twice: the kTraced=false build is
// byte-for-byte the old hook-free loop, the kTraced=true build weaves the
// Tracer callbacks in. step()/run() pick an instantiation with a single
// null-pointer branch, so disabling tracing costs nothing in the hot path.
template <bool kTraced>
void Cpu::step_impl(std::uint64_t deadline, bool single) {
  if (state_ != CpuState::Running) return;

  // The hot architectural counters live in locals for the whole loop: byte
  // stores through ram_ may alias any member (char-type aliasing), so
  // member counters would be reloaded and re-stored every instruction,
  // while loop locals stay in registers. The traced instantiation syncs
  // the members around every hook so tracers observe exactly the
  // per-instruction state the member-based loop exposed; cold exits
  // (fault, a throwing device handler) sync before leaving.
  std::uint32_t pc = pc_;
  std::uint64_t cycles = cycles_;
  std::uint64_t retired = retired_;
  std::uint8_t* const ram = ram_;
  Bus<kTraced> bus{*this};
  try {
  do {
  if constexpr (kTraced) {
    pc_ = pc;
    cycles_ = cycles;
    retired_ = retired;
  }
  const std::uint32_t pc0 = pc;
  [[maybe_unused]] std::uint16_t sp0 = 0;
  if constexpr (kTraced) sp0 = sp();
  // Executed from a by-value copy: the interpreter's data-space byte stores
  // could alias a cache_ reference, forcing field reloads after every store.
  const Instr in = decoded(pc0);
  std::uint32_t next = (pc0 + in.size_words) & pc_mask_;
  std::uint32_t cyc = 1;

  switch (in.op) {
#define MAVR_INTERP_REG(name, cost, field)                               \
    case Op::name:                                                       \
      ram[kAddrSreg] =                                                   \
          ex_##name(ram, ram[kAddrSreg], in.rd, in.field, in.k);         \
      cyc = cost;                                                        \
      break;
    MAVR_AVR_REG_OPS(MAVR_INTERP_REG)
#undef MAVR_INTERP_REG
#define MAVR_INTERP_MEM(name, cost)                                      \
    case Op::name:                                                       \
      ex_##name(ram, bus, in.rd, in.k);                                  \
      cyc = cost;                                                        \
      break;
    MAVR_AVR_MEM_OPS(MAVR_INTERP_MEM)
#undef MAVR_INTERP_MEM

    case Op::Invalid:
      pc_ = pc;
      cycles_ = cycles;
      retired_ = retired;
      fault_now(pc0, flash_.word(pc0),
                "invalid opcode " + support::hex_value(flash_.word(pc0)));
      if constexpr (kTraced) tracer_->on_fault(*this, fault_);
      return;

    case Op::Nop:
    case Op::Sleep:
    case Op::Wdr:
    case Op::Spm:
      break;
    case Op::Break:
      state_ = CpuState::Stopped;
      break;

    // --- Static-address data transfer -----------------------------------
    case Op::Lds:
      ex_load(ram, bus, in.rd, in.k);
      cyc = 2;
      break;
    case Op::Sts:
      ex_store(ram, bus, in.rd, in.k);
      cyc = 2;
      break;
    case Op::In:
      ex_load(ram, bus, in.rd, kIoBase + in.k);
      break;
    case Op::Out:
      ex_store(ram, bus, in.rd, kIoBase + in.k);
      break;
    case Op::Sbi:
      ex_sbi(bus, kIoBase + in.k, in.bit);
      cyc = 2;
      break;
    case Op::Cbi:
      ex_cbi(bus, kIoBase + in.k, in.bit);
      cyc = 2;
      break;

    // --- Control flow ---------------------------------------------------
    case Op::Rjmp:
      next = (pc0 + 1 + static_cast<std::uint32_t>(in.target)) & pc_mask_;
      cyc = 2;
      break;
    case Op::Jmp:
      next = static_cast<std::uint32_t>(in.target) & pc_mask_;
      cyc = 3;
      break;
    case Op::Ijmp:
      next = target_z(ram) & pc_mask_;
      cyc = 2;
      break;
    case Op::Eijmp:
      next = target_eind_z(ram) & pc_mask_;
      cyc = 2;
      break;
    case Op::Rcall:
    case Op::Call:
    case Op::Icall:
    case Op::Eicall: {
      const std::uint32_t ret = next;
      push_pc(ret);
      const bool three = push_bytes_ == 3;
      switch (in.op) {
        case Op::Rcall:
          next = (pc0 + 1 + static_cast<std::uint32_t>(in.target)) & pc_mask_;
          cyc = three ? 4 : 3;
          break;
        case Op::Call:
          next = static_cast<std::uint32_t>(in.target) & pc_mask_;
          cyc = three ? 5 : 4;
          break;
        case Op::Icall:
          next = target_z(ram) & pc_mask_;
          cyc = three ? 4 : 3;
          break;
        default:
          next = target_eind_z(ram) & pc_mask_;
          cyc = 4;
      }
      if constexpr (kTraced) tracer_->on_call(*this, pc0, next, ret);
      break;
    }
    case Op::Ret:
    case Op::Reti: {
      const std::uint32_t raw = pop_pc();
      next = raw & pc_mask_;
      record_ret(raw);
      if (in.op == Op::Reti) {
        ram[kAddrSreg] = ex_Bset(ram, ram[kAddrSreg], 0, kI, 0);
      }
      cyc = push_bytes_ == 3 ? 5 : 4;
      if constexpr (kTraced) {
        tracer_->on_ret(*this, pc0, next, raw, in.op == Op::Reti);
      }
      break;
    }
    case Op::Brbs:
    case Op::Brbc:
      if (taken_brbs(ram[kAddrSreg], in.bit) == (in.op == Op::Brbs)) {
        next = (pc0 + 1 + static_cast<std::uint32_t>(in.target)) & pc_mask_;
        cyc = 2;
      }
      break;
    case Op::Cpse:
    case Op::Sbrc:
    case Op::Sbrs:
    case Op::Sbic:
    case Op::Sbis: {
      bool skip;
      switch (in.op) {
        case Op::Cpse: skip = taken_cpse(ram, in.rd, in.rr); break;
        case Op::Sbrc: skip = !bit_set(ram[in.rd], in.bit); break;
        case Op::Sbrs: skip = bit_set(ram[in.rd], in.bit); break;
        case Op::Sbic: skip = !bit_set(bus.load(kIoBase + in.k), in.bit); break;
        default: skip = bit_set(bus.load(kIoBase + in.k), in.bit);
      }
      if (skip) {
        next = skip_target(next);
        cyc = 2;
      }
      break;
    }
  }

  if constexpr (kTraced) {
    // Fires before the PC advances so watchpoint hits report the pc of the
    // instruction that moved SP (the stk_move pivot's OUT, a push, ...).
    const std::uint16_t sp1 = sp();
    if (sp1 != sp0) tracer_->on_sp_change(*this, sp0, sp1);
  }

  pc = next & pc_mask_;
  cycles += cyc;
  ++retired;
  // Publish the post-retire time for clock-reading devices (one store),
  // then dispatch device ticks only when a cached deadline is crossed —
  // the per-instruction virtual broadcast is gone from the hot path.
  io_.set_now(cycles);
  if (cycles >= io_.next_deadline()) [[unlikely]] io_.tick(cycles);

  if constexpr (kTraced) {
    pc_ = pc;
    cycles_ = cycles;
    retired_ = retired;
    tracer_->on_retire(*this, pc0, in, cyc);
  }

  // Interrupt delivery between instructions (lowest vector slot wins).
  // Lines are only walked while the bus's interrupt hint is up — devices
  // raise it when a condition goes pending, and a poll that finds nothing
  // clears it, so quiescent stretches skip the indirect take() calls.
  if (flag(kI) && io_.irq_hint() && !irq_lines_.empty()) {
    poll_irq_lines<kTraced>(pc, cycles);
  }
  } while (!single && state_ == CpuState::Running && cycles < deadline);
  } catch (...) {
    pc_ = pc;
    cycles_ = cycles;
    retired_ = retired;
    throw;
  }
  pc_ = pc;
  cycles_ = cycles;
  retired_ = retired;
}

void Cpu::step() {
  sync_decode_cache();
  io_.raise_irq();
  if (tracer_ == nullptr) [[likely]] {
    step_impl<false>(0, /*single=*/true);
  } else {
    step_impl<true>(0, /*single=*/true);
  }
}

// Delivery shared by both interpreter instantiations and the tier
// dispatcher. Caller holds the gate (I set, hint up, lines registered);
// locals are the caller's live pc/cycle counters.
template <bool kTraced>
void Cpu::poll_irq_lines(std::uint32_t& pc, std::uint64_t& cycles) {
  bool took = false;
  for (const IrqLine& line : irq_lines_) {
    if (!line.take(line.ctx)) continue;
    took = true;
    const std::uint32_t from = pc;
    [[maybe_unused]] std::uint16_t sp_before = 0;
    if constexpr (kTraced) sp_before = sp();
    push_pc(from);
    ram_[kAddrSreg] &= static_cast<std::uint8_t>(~fb(kI));
    pc = (static_cast<std::uint32_t>(line.slot) * 2) & pc_mask_;
    cycles += 5;
    ++interrupts_taken_;
    if constexpr (kTraced) {
      pc_ = pc;
      cycles_ = cycles;
      tracer_->on_sp_change(*this, sp_before, sp());
      tracer_->on_irq(*this, line.slot, from);
    }
    break;
  }
  // Keep the hint up after a dispatch: another line may still be pending
  // (it will be re-polled at the next instruction with I set).
  if (!took) io_.clear_irq_hint();
}

void Cpu::set_irq_line(std::uint8_t vector_slot, IrqTakeFn take, void* ctx) {
  irq_lines_.push_back(IrqLine{vector_slot, take, ctx});
  std::sort(
      irq_lines_.begin(), irq_lines_.end(),
      [](const IrqLine& a, const IrqLine& b) { return a.slot < b.slot; });
}

std::uint64_t Cpu::run(std::uint64_t cycle_budget) {
  sync_decode_cache();
  // Pending state may have been flipped from outside the simulation loop
  // (tests driving lines directly, UART feeds between runs): poll at least
  // once regardless of device hints.
  io_.raise_irq();
  const std::uint64_t start = cycles_;
  // Saturating: a budget reaching past the end of the cycle counter means
  // "until the core stops", not a deadline that wrapped into the past.
  const std::uint64_t deadline = cycle_budget > kNoDeadline - start
                                     ? kNoDeadline
                                     : start + cycle_budget;
  // Execution mode resolved once per run: a tracer demotes to the traced
  // interpreter (hooks fire per instruction, which a block executor cannot
  // provide), otherwise the superblock tier runs unless toggled off for
  // benchmarking. Every mode is bit-identical; see DESIGN.md §16.
  if (cycle_budget != 0) {
    if (tracer_ == nullptr) [[likely]] {
      if (exec_tier_) [[likely]] {
        run_tier(deadline);
      } else {
        step_impl<false>(deadline, /*single=*/false);
      }
    } else {
      step_impl<true>(deadline, /*single=*/false);
    }
  }
  return cycles_ - start;
}

#if defined(__GNUC__) || defined(__clang__)

/// Advance to the next micro-op of the current block (computed goto —
/// each handler ends with its own indirect jump, so the branch predictor
/// sees one distinct jump site per opcode instead of a shared dispatch).
#define MAVR_TIER_NEXT() \
  do {                   \
    ++op;                \
    goto* kJump[static_cast<std::size_t>(op->kind)]; \
  } while (0)

/// Dispatched-I/O access inside a block: run it through the full bus path
/// and — when the handler provably could not affect anything the rest of
/// the block observes (interrupt hint, tick deadline, and flash
/// generation all untouched) — keep executing the block. Otherwise fall
/// through to the caller's block-exit code, which retires this op through
/// the interpreter-exact boundary sequence.
#define MAVR_TIER_IO_CALL(access)                                  \
  dispatch_at();                                                   \
  const bool hint0 = io_.irq_hint();                               \
  const std::uint64_t dl0 = io_.next_deadline();                   \
  access;                                                          \
  if (io_.irq_hint() == hint0 && io_.next_deadline() == dl0 &&     \
      flash_.generation() == gen0) [[likely]] {                    \
    MAVR_TIER_NEXT();                                              \
  }                                                                \
  if (flash_.generation() != gen0) want_resync = true

/// Same, for a dispatched skip-test (SBIC/SBIS): the taken (skip) path
/// always exits at this boundary, the not-taken path continues in the
/// block only for a benign handler.
#define MAVR_TIER_IO_CALL_COND(access, taken_expr)                 \
  dispatch_at();                                                   \
  const bool hint0 = io_.irq_hint();                               \
  const std::uint64_t dl0 = io_.next_deadline();                   \
  access;                                                          \
  const bool benign =                                              \
      io_.irq_hint() == hint0 && io_.next_deadline() == dl0 &&     \
      flash_.generation() == gen0;                                 \
  if (!benign && flash_.generation() != gen0) want_resync = true;  \
  if (taken_expr) {                                                \
    next_pc = op->target;                                          \
    term_cyc = op->cyc;                                            \
  } else {                                                         \
    if (benign) [[likely]] MAVR_TIER_NEXT();                       \
    next_pc = op->target2;                                         \
    term_cyc = 1;                                                  \
  }

void Cpu::run_tier(std::uint64_t deadline) {
  if (state_ != CpuState::Running) return;

  // Loop-invariant locals: byte stores through `ram` may alias any member
  // (char-type aliasing), so members read inside handlers would be
  // reloaded after every store. Locals are immune.
  std::uint8_t* const ram = ram_;
  // `restrict` holds for the same reason as the op arena below: handler
  // registration (the only dispatch-map writer) happens during board
  // construction, never from inside a running simulation.
  const std::uint8_t* const __restrict disp = io_.dispatch_map();
  const std::uint32_t mask = pc_mask_;
  const std::uint32_t data_size = data_size_;
  const unsigned push_n = push_bytes_;
  // The two memory disciplines of in-block ops: plain RAM behind the
  // guard, and the full bus for device-dispatched accesses.
  PlainRam plain{ram, data_size_ - kExtIoEnd, flash_};
  Bus<false> bus{*this};

  // Cache geometry, also hoisted: the map pointer is stable for the whole
  // run (sync() sizes it once; translate() never resizes it), the epoch
  // and block/op arrays are re-hoisted after a translate() or a mid-run
  // reflash resync.
  tier_.sync(flash_, io_.handler_generation());
  const std::uint64_t* const tmap = tier_.map.data();
  std::uint64_t tepoch = tier_.epoch;
  std::uint64_t gen0 = tier_.generation;
  const TierBlock* tblocks = tier_.blocks.data();
  const TierOp* tarena = tier_.arena.data();
  // Set when a dispatched handler moved the flash generation mid-run (a
  // device-triggered reflash): every translation is stale, so the
  // executor drains back to the resync loop below.
  bool want_resync = false;

  std::uint32_t pc = pc_;
  std::uint64_t cycles = cycles_;
  std::uint64_t retired = retired_;

  std::uint64_t stat_blocks = 0, stat_insns = 0, stat_sides = 0,
                stat_io = 0, stat_steps = 0;
  const auto flush_stats = [&] {
    tier_.stats.blocks_executed += stat_blocks;
    tier_.stats.block_instructions += stat_insns;
    tier_.stats.side_exits += stat_sides;
    tier_.stats.io_dispatches += stat_io;
    tier_.stats.interp_steps += stat_steps;
  };
  // One cycle-exact interpreter step (its own tick check and IRQ poll
  // included) with the members synced around it.
  const auto interp_one = [&] {
    pc_ = pc;
    cycles_ = cycles;
    retired_ = retired;
    step_impl<false>(deadline, /*single=*/true);
    pc = pc_;
    cycles = cycles_;
    retired = retired_;
    ++stat_steps;
  };

  try {
   resync:
    while (!want_resync && state_ == CpuState::Running && cycles < deadline) {
      // A pending interrupt must be delivered at the very next instruction
      // boundary — blocks only poll at their end, so step the interpreter
      // (which polls after every instruction) until the gate drops.
      if ((ram[kAddrSreg] & fb(kI)) != 0 && io_.irq_hint() &&
          !irq_lines_.empty()) {
        interp_one();
        continue;
      }
      const std::uint64_t slot = tmap[pc];
      const TierBlock* bp;
      if ((slot >> 32) != tepoch) [[unlikely]] {
        bp = &tier_.translate(flash_, disp, pc, mask, data_size, push_bytes_);
        tblocks = tier_.blocks.data();
        tarena = tier_.arena.data();
      } else {
        bp = tblocks + static_cast<std::uint32_t>(slot);
      }
      if (bp->interp_only) [[unlikely]] {
        interp_one();
        continue;
      }
      // The interpreter checks the run deadline and the I/O tick deadline
      // after every instruction; a block may only run whole if neither can
      // trigger inside it. worst_cycles bounds every prefix, so past this
      // guard the block is indistinguishable from single-stepping.
      {
        const std::uint64_t io_deadline = io_.next_deadline();
        const std::uint64_t stop =
            io_deadline < deadline ? io_deadline : deadline;
        if (cycles + bp->worst_cycles >= stop) [[unlikely]] {
          // Batch through the interpreter until just past the blocking
          // deadline — single-stepping here would re-fail this guard at
          // every boundary in the window, and the interpreter runs the
          // tick/poll sequence itself, cycle-exactly.
          std::uint64_t target = stop < deadline ? stop + 1 : deadline;
          if (target <= cycles) target = cycles + 1;
          pc_ = pc;
          cycles_ = cycles;
          retired_ = retired;
          const std::uint64_t retired0 = retired;
          step_impl<false>(target, /*single=*/false);
          pc = pc_;
          cycles = cycles_;
          retired = retired_;
          stat_steps += retired - retired0;
          continue;
        }
      }

      // `restrict`: block stores go through `ram` (a char* that formally
      // aliases everything), but the op arena is never written while a
      // block runs — translate()/resync happen only between blocks — so
      // the compiler may cache op fields across those stores.
      const TierOp* __restrict op = tarena + bp->first_op;
      // SREG cached in a register for the whole block: every op that could
      // observe it through memory is either special-cased (IN/LDS 0x5F) or
      // ends the block (OUT/STS 0x5F), and it is written back at every
      // exit before any interpreter code can run.
      std::uint8_t sreg = ram[kAddrSreg];
      std::uint32_t next_pc = 0;
      std::uint32_t term_cyc = 0;
      // Prologue for an in-block access that must go through the full bus
      // path: publish the clock handlers would read under the interpreter
      // (set after the previous instruction) and sync the members so a
      // throwing handler reports instruction-exact state.
      const auto dispatch_at = [&] {
        ++stat_io;
        ram[kAddrSreg] = sreg;
        const std::uint64_t at = cycles + op->cyc_before;
        io_.set_now(at);
        pc_ = op->pc_abs;
        cycles_ = at;
        retired_ = retired + op->ins_before;
      };

      static const void* const kJump[] = {
#define MAVR_TIER_LABEL(name, ...) &&L_##name,
          MAVR_TIER_ALL_KINDS(MAVR_TIER_LABEL)
#undef MAVR_TIER_LABEL
      };
      static_assert(sizeof(kJump) / sizeof(kJump[0]) == kTierOpKinds,
                    "dispatch table must cover every TierOpKind");
      goto* kJump[static_cast<std::size_t>(op->kind)];

    // --- straight-line ops: the shared definitions -----------------------
#define MAVR_TIER_REG(name, ...)                                  \
    L_##name:                                                     \
      sreg = ex_##name(ram, sreg, op->a, op->b, op->k);           \
      MAVR_TIER_NEXT();
      MAVR_AVR_REG_OPS(MAVR_TIER_REG)
#undef MAVR_TIER_REG
#define MAVR_TIER_MEM(name, ...)                                  \
    L_##name:                                                     \
      if (!ex_##name(ram, plain, op->a, op->k)) goto side_exit;   \
      MAVR_TIER_NEXT();
      MAVR_AVR_MEM_OPS(MAVR_TIER_MEM)
#undef MAVR_TIER_MEM
    L_Nop:
      MAVR_TIER_NEXT();
    L_CallPush:
      if (!push_ret_ram(ram, op->target2, push_n, data_size)) goto side_exit;
      MAVR_TIER_NEXT();

    // --- static-address data transfer ----------------------------------
    L_LdsRam:
      ex_load(ram, plain, op->a, op->k);
      MAVR_TIER_NEXT();
    L_StsRam:
      ex_store(ram, plain, op->a, op->k);
      MAVR_TIER_NEXT();
    L_LdsSreg:
      if (disp[op->k] & IoBus::kHandlesRead) goto side_exit;
      ram[kAddrSreg] = sreg;  // publish the live value, then load it
      ex_load(ram, plain, op->a, op->k);
      MAVR_TIER_NEXT();
    // Device-dispatched access: perform it through the full bus path and
    // retire this op as the block's last — the subsequent block_done runs
    // the interpreter's exact post-instruction sequence (set_now, tick on
    // crossed deadline, IRQ poll), so a handler that reprograms the timer
    // or raises the hint is observed at the same boundary it would be
    // under single-stepping. `dispatch_at` publishes the clock the
    // interpreter's handlers would read (set after the *previous*
    // instruction) and syncs members for exception context.
    L_LdsLow:
      if (disp[op->k] & IoBus::kHandlesRead) [[unlikely]] {
        MAVR_TIER_IO_CALL(ex_load(ram, bus, op->a, op->k));
        next_pc = op->target;
        term_cyc = op->cyc;
        goto block_done;
      }
      ex_load(ram, plain, op->a, op->k);
      MAVR_TIER_NEXT();
    L_StsLow:
      if (disp[op->k] & IoBus::kHandlesWrite) [[unlikely]] {
        MAVR_TIER_IO_CALL(ex_store(ram, bus, op->a, op->k));
        next_pc = op->target;
        term_cyc = op->cyc;
        goto block_done;
      }
      ex_store(ram, plain, op->a, op->k);
      MAVR_TIER_NEXT();
    // SBI/CBI: the interpreter performs a dispatched load *and* store;
    // route both through the bus if a device handles either side.
#define MAVR_TIER_BIT_OP(name, fn)                                  \
    L_##name:                                                       \
      if (disp[op->k] & (IoBus::kHandlesRead | IoBus::kHandlesWrite)) \
          [[unlikely]] {                                            \
        MAVR_TIER_IO_CALL(fn(bus, op->k, op->b));                   \
        next_pc = op->target;                                       \
        term_cyc = op->cyc;                                         \
        goto block_done;                                            \
      }                                                             \
      fn(plain, op->k, op->b);                                      \
      MAVR_TIER_NEXT();
      MAVR_TIER_BIT_OP(Sbi, ex_sbi)
      MAVR_TIER_BIT_OP(Cbi, ex_cbi)
#undef MAVR_TIER_BIT_OP

    // --- fused pairs: both ops' own definitions, one dispatch ----------
#define MAVR_TIER_PAIR(name, first, second)                       \
    L_##name:                                                     \
      sreg = pair_half<TierOpKind::k##first>(plain, sreg, op[0]); \
      sreg = pair_half<TierOpKind::k##second>(plain, sreg, op[1]);\
      ++op;                                                       \
      MAVR_TIER_NEXT();
      MAVR_TIER_FUSED_PAIRS(MAVR_TIER_PAIR)
#undef MAVR_TIER_PAIR

    // --- conditional mid-block exits ------------------------------------
#define MAVR_TIER_COND(taken)                                     \
      if (taken) {                                                \
        next_pc = op->target;                                     \
        term_cyc = op->cyc;                                       \
        goto block_done;                                          \
      }                                                           \
      MAVR_TIER_NEXT();
    L_CondBrbs:
      MAVR_TIER_COND(taken_brbs(sreg, op->b))
    L_CondBrbc:
      MAVR_TIER_COND(!taken_brbs(sreg, op->b))
    L_CondCpse:
      MAVR_TIER_COND(taken_cpse(ram, op->a, op->b))
    L_CondSbrc:
      MAVR_TIER_COND(!bit_set(ram[op->a], op->b))
    L_CondSbrs:
      MAVR_TIER_COND(bit_set(ram[op->a], op->b))
    // SBIC/SBIS: a dispatched read ends the block at this boundary
    // whichever way the test goes — the handler may have scheduled work.
#define MAVR_TIER_SKIP_IO(name, want)                               \
    L_##name:                                                       \
      if (disp[op->k] & IoBus::kHandlesRead) [[unlikely]] {         \
        std::uint8_t v;                                             \
        MAVR_TIER_IO_CALL_COND(v = bus.load(op->k),                 \
                               bit_set(v, op->b) == want);          \
        goto block_done;                                            \
      }                                                             \
      MAVR_TIER_COND(bit_set(plain.load(op->k), op->b) == want)
      MAVR_TIER_SKIP_IO(CondSbic, false)
      MAVR_TIER_SKIP_IO(CondSbis, true)
#undef MAVR_TIER_SKIP_IO
#undef MAVR_TIER_COND
    L_CondRet: {
      // The RET pop, then a compare against the translate-time
      // prediction: a match continues in-block, a mismatch (callee
      // unbalanced the stack) exits with the popped destination. Nothing
      // is speculative — the pop is architectural either way.
      std::uint32_t raw;
      if (!pop_ret_ram(ram, push_n, data_size, raw)) goto side_exit;
      record_ret(raw);
      const std::uint32_t dest = raw & mask;
      if (dest == op->target) [[likely]] MAVR_TIER_NEXT();
      next_pc = dest;
      term_cyc = op->cyc;
      goto block_done;
    }

    // --- terminators ---------------------------------------------------
    L_TermIjmp:
      next_pc = target_z(ram) & mask;
      term_cyc = op->cyc;
      goto block_done;
    L_TermEijmp:
      next_pc = target_eind_z(ram) & mask;
      term_cyc = op->cyc;
      goto block_done;
    L_TermIcall:
    L_TermEicall:
      if (!push_ret_ram(ram, op->target2, push_n, data_size)) goto side_exit;
      next_pc = (op->kind == TierOpKind::kTermIcall ? target_z(ram)
                                                     : target_eind_z(ram)) &
                mask;
      term_cyc = op->cyc;
      goto block_done;
    L_TermRet:
    L_TermReti: {
      std::uint32_t raw;
      if (!pop_ret_ram(ram, push_n, data_size, raw)) goto side_exit;
      record_ret(raw);
      if (op->kind == TierOpKind::kTermReti) {
        sreg = ex_Bset(ram, sreg, 0, kI, 0);
      }
      next_pc = raw & mask;
      term_cyc = op->cyc;
      goto block_done;
    }
    L_TermBsetI:
      sreg = ex_Bset(ram, sreg, op->a, kI, op->k);
      next_pc = op->target2;
      term_cyc = op->cyc;
      goto block_done;
    L_TermOutSreg:
      if (disp[op->k] & IoBus::kHandlesWrite) goto side_exit;
      ex_store(ram, plain, op->a, op->k);
      sreg = ram[kAddrSreg];
      next_pc = op->target2;
      term_cyc = op->cyc;
      goto block_done;
    L_TermFall:
      // Pseudo-exit: retires nothing itself. The tick/poll that the
      // interpreter would run after the last real op cannot be due here —
      // the deadline guard covered the whole prefix and no in-block op
      // can raise the interrupt gate — so publishing the clock suffices.
      ram[kAddrSreg] = sreg;
      pc = op->target;
      cycles += op->cyc_before;
      retired += op->ins_before;
      stat_insns += op->ins_before;
      ++stat_blocks;
      io_.set_now(cycles);
      continue;

    block_done:
      ram[kAddrSreg] = sreg;
      pc = next_pc;
      cycles += op->cyc_before + term_cyc;
      retired += static_cast<std::uint64_t>(op->ins_before) + 1;
      stat_insns += static_cast<std::uint64_t>(op->ins_before) + 1;
      ++stat_blocks;
      // Exactly the interpreter's post-instruction sequence for the
      // terminator: publish the clock, tick on a crossed deadline, then
      // poll interrupt lines (the terminator may have set I).
      io_.set_now(cycles);
      if (cycles >= io_.next_deadline()) [[unlikely]] io_.tick(cycles);
      if ((ram[kAddrSreg] & fb(kI)) != 0 && io_.irq_hint() &&
          !irq_lines_.empty()) {
        poll_irq_lines<false>(pc, cycles);
      }
      continue;

    side_exit:
      // The op at `op` has not touched any architectural state. Restore
      // the exact pre-op machine state and hand the instruction to the
      // interpreter, which redoes it with full dispatch/wrap semantics.
      ram[kAddrSreg] = sreg;
      pc = op->pc_abs;
      cycles += op->cyc_before;
      retired += op->ins_before;
      stat_insns += op->ins_before;
      ++stat_sides;
      io_.set_now(cycles);
      interp_one();
      continue;
    }
    if (want_resync) [[unlikely]] {
      want_resync = false;
      tier_.sync(flash_, io_.handler_generation());
      tepoch = tier_.epoch;
      gen0 = tier_.generation;
      tblocks = tier_.blocks.data();
      tarena = tier_.arena.data();
      goto resync;
    }
  } catch (...) {
    pc_ = pc;
    cycles_ = cycles;
    retired_ = retired;
    flush_stats();
    throw;
  }
  pc_ = pc;
  cycles_ = cycles;
  retired_ = retired;
  flush_stats();
}

#undef MAVR_TIER_NEXT
#undef MAVR_TIER_IO_CALL
#undef MAVR_TIER_IO_CALL_COND

#else  // !(__GNUC__ || __clang__)

// Without computed goto the tier has no fast dispatch to offer; fall
// through to the interpreter, which is bit-identical by definition.
void Cpu::run_tier(std::uint64_t deadline) {
  step_impl<false>(deadline, /*single=*/false);
}

#endif

}  // namespace mavr::avr
