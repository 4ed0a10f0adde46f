#include "avr/cpu.hpp"

#include <algorithm>
#include <bit>

#include "support/hexdump.hpp"

namespace mavr::avr {

namespace {
constexpr std::uint8_t bit7(std::uint8_t v) { return (v >> 7) & 1; }
constexpr std::uint8_t bit3(std::uint8_t v) { return (v >> 3) & 1; }

/// SREG bit as a mask byte.
constexpr std::uint8_t fb(SregBit bit) {
  return static_cast<std::uint8_t>(1u << bit);
}

// Flag groups recomputed per ALU class. Each group is cleared from a local
// copy of SREG, the fresh bits OR-ed in, and the result written back once —
// the old per-flag set_flag() path cost six read-modify-write round trips
// through the data space per arithmetic instruction.
constexpr std::uint8_t kArithFlags =
    fb(kH) | fb(kC) | fb(kV) | fb(kN) | fb(kZ) | fb(kS);
constexpr std::uint8_t kLogicFlags = fb(kV) | fb(kN) | fb(kZ) | fb(kS);
constexpr std::uint8_t kShiftFlags =
    fb(kC) | fb(kV) | fb(kN) | fb(kZ) | fb(kS);

// Pure SREG calculators. The interpreter's flag helpers and the superblock
// executor (run_tier) both delegate here — one definition per formula, so
// the two execution paths cannot drift apart.
constexpr std::uint8_t sreg_add(std::uint8_t sreg, std::uint8_t d,
                                std::uint8_t r, std::uint8_t res) {
  // Branchless composition. `carries` is the full-adder carry-out vector,
  // the identity (d&r) | ((d|r) & ~res) — valid with any carry-in because
  // `res` already encodes it — so H and C are single bit extracts and V is
  // the textbook signed-overflow formula. Data-dependent flag bits are
  // close to random, so arithmetic beats branching on them.
  const unsigned carries = (d & r) | ((d | r) & ~unsigned{res});
  const unsigned v =
      ((d & r & ~unsigned{res}) | (~unsigned{d} & ~unsigned{r} & res)) >> 7;
  const unsigned n = res >> 7;
  const unsigned c = (carries >> 7) & 1;
  const unsigned h = (carries >> 3) & 1;
  const unsigned z = res == 0 ? 1u : 0u;
  return static_cast<std::uint8_t>(
      (sreg & ~unsigned{kArithFlags}) | (c << kC) | (z << kZ) | (n << kN) |
      (v << kV) | ((n ^ v) << kS) | (h << kH));
}

constexpr std::uint8_t sreg_sub(std::uint8_t sreg, std::uint8_t d,
                                std::uint8_t r, std::uint8_t res,
                                bool keep_z) {
  // Mirror of sreg_add with the borrow-out vector (~d&r) | ((~d|r)&res);
  // again `res` encodes the borrow-in, so H and C fall out as bit extracts.
  const unsigned nd = ~unsigned{d};
  const unsigned borrows = (nd & r) | ((nd | r) & res);
  const unsigned v =
      ((d & ~unsigned{r} & ~unsigned{res}) | (nd & r & res)) >> 7;
  const unsigned n = res >> 7;
  const unsigned c = (borrows >> 7) & 1;
  const unsigned h = (borrows >> 3) & 1;
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

constexpr std::uint8_t sreg_mul(std::uint8_t sreg, std::uint16_t res) {
  std::uint8_t s = sreg & static_cast<std::uint8_t>(~(fb(kC) | fb(kZ)));
  if ((res >> 15) & 1) s |= fb(kC);
  if (res == 0) s |= fb(kZ);
  return s;
}

constexpr std::uint8_t sreg_com(std::uint8_t sreg, std::uint8_t res) {
  std::uint8_t s = sreg & static_cast<std::uint8_t>(~(kLogicFlags | fb(kC)));
  s |= fb(kC);  // COM always sets carry
  if (bit7(res)) s |= fb(kN) | fb(kS);
  if (res == 0) s |= fb(kZ);
  return s;
}

constexpr std::uint8_t sreg_neg(std::uint8_t sreg, std::uint8_t d,
                                std::uint8_t res) {
  const bool n = bit7(res) != 0, v = res == 0x80;
  std::uint8_t s = sreg & static_cast<std::uint8_t>(~kArithFlags);
  if ((bit3(res) | bit3(d)) != 0) s |= fb(kH);
  if (res != 0) s |= fb(kC);
  if (v) s |= fb(kV);
  if (n) s |= fb(kN);
  if (res == 0) s |= fb(kZ);
  if (n != v) s |= fb(kS);
  return s;
}

constexpr std::uint8_t sreg_inc(std::uint8_t sreg, std::uint8_t res) {
  const bool n = bit7(res) != 0, v = res == 0x80;
  std::uint8_t s = sreg & static_cast<std::uint8_t>(~kLogicFlags);
  if (v) s |= fb(kV);
  if (n) s |= fb(kN);
  if (res == 0) s |= fb(kZ);
  if (n != v) s |= fb(kS);
  return s;
}

constexpr std::uint8_t sreg_dec(std::uint8_t sreg, std::uint8_t res) {
  const bool n = bit7(res) != 0, v = res == 0x7F;
  std::uint8_t s = sreg & static_cast<std::uint8_t>(~kLogicFlags);
  if (v) s |= fb(kV);
  if (n) s |= fb(kN);
  if (res == 0) s |= fb(kZ);
  if (n != v) s |= fb(kS);
  return s;
}

/// ASR and ROR share this: C from the shifted-out bit, V = N ^ C.
constexpr std::uint8_t sreg_asr_ror(std::uint8_t sreg, std::uint8_t d,
                                    std::uint8_t res) {
  const bool c = (d & 1) != 0, n = bit7(res) != 0, v = n != c;
  std::uint8_t s = sreg & static_cast<std::uint8_t>(~kShiftFlags);
  if (c) s |= fb(kC);
  if (n) s |= fb(kN);
  if (res == 0) s |= fb(kZ);
  if (v) s |= fb(kV);
  if (n != v) s |= fb(kS);
  return s;
}

constexpr std::uint8_t sreg_lsr(std::uint8_t sreg, std::uint8_t d,
                                std::uint8_t res) {
  std::uint8_t s = sreg & static_cast<std::uint8_t>(~kShiftFlags);
  // N = 0, so V = N ^ C = C and S = N ^ V = C.
  if (d & 1) s |= fb(kC) | fb(kV) | fb(kS);
  if (res == 0) s |= fb(kZ);
  return s;
}

constexpr std::uint8_t sreg_adiw(std::uint8_t sreg, std::uint16_t d,
                                 std::uint16_t res) {
  const bool rdh7 = ((d >> 15) & 1) != 0, r15 = ((res >> 15) & 1) != 0;
  const bool v = !rdh7 && r15;
  std::uint8_t s = sreg & static_cast<std::uint8_t>(~kShiftFlags);
  if (v) s |= fb(kV);
  if (!r15 && rdh7) s |= fb(kC);
  if (r15) s |= fb(kN);
  if (res == 0) s |= fb(kZ);
  if (r15 != v) s |= fb(kS);
  return s;
}

constexpr std::uint8_t sreg_sbiw(std::uint8_t sreg, std::uint16_t d,
                                 std::uint16_t res) {
  const bool rdh7 = ((d >> 15) & 1) != 0, r15 = ((res >> 15) & 1) != 0;
  const bool v = rdh7 && !r15;
  std::uint8_t s = sreg & static_cast<std::uint8_t>(~kShiftFlags);
  if (v) s |= fb(kV);
  if (r15 && !rdh7) s |= fb(kC);
  if (r15) s |= fb(kN);
  if (res == 0) s |= fb(kZ);
  if (r15 != v) s |= fb(kS);
  return s;
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

void Cpu::set_flag(SregBit bit, bool value) {
  std::uint8_t s = sreg();
  if (value) {
    s |= static_cast<std::uint8_t>(1u << bit);
  } else {
    s &= static_cast<std::uint8_t>(~(1u << bit));
  }
  set_sreg(s);
}

void Cpu::flags_add(std::uint8_t d, std::uint8_t r, std::uint8_t carry_in,
                    std::uint8_t res) {
  (void)carry_in;  // `res` already encodes it; see sreg_add
  set_sreg(sreg_add(sreg(), d, r, res));
}

void Cpu::flags_sub(std::uint8_t d, std::uint8_t r, std::uint8_t borrow_in,
                    std::uint8_t res, bool keep_z) {
  (void)borrow_in;
  set_sreg(sreg_sub(sreg(), d, r, res, keep_z));
}

void Cpu::flags_logic(std::uint8_t res) {
  set_sreg(sreg_logic(sreg(), res));
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
  // Hardware pushes the LSB first, so ascending memory reads big-endian —
  // the byte order every ROP payload in the paper (Fig. 6) relies on.
  //
  // Fast path: when every pushed byte lands in plain RAM (at or above the
  // I/O region, below the data-space end) the writes cannot hit a device
  // handler, cannot wrap, and cannot alias SPL/SPH — so batching them is
  // exactly equivalent to the byte-at-a-time sequence. A stack pivoted
  // into the I/O region or off the end takes the general path, which
  // re-reads SP between bytes (a push that rewrites SPL redirects the
  // bytes that follow, and the ROP payloads depend on that).
  const std::uint16_t sp_now = sp();
  const unsigned n = push_bytes_;
  if (sp_now >= kExtIoEnd + (n - 1) && sp_now < data_size_) [[likely]] {
    ram_[sp_now] = static_cast<std::uint8_t>(ret_words & 0xFF);
    ram_[sp_now - 1] = static_cast<std::uint8_t>((ret_words >> 8) & 0xFF);
    if (n == 3) {
      ram_[sp_now - 2] = static_cast<std::uint8_t>((ret_words >> 16) & 0xFF);
    }
    set_sp(static_cast<std::uint16_t>(sp_now - n));
    return;
  }
  push_byte(static_cast<std::uint8_t>(ret_words & 0xFF));
  push_byte(static_cast<std::uint8_t>((ret_words >> 8) & 0xFF));
  if (n == 3) {
    push_byte(static_cast<std::uint8_t>((ret_words >> 16) & 0xFF));
  }
}

std::uint32_t Cpu::pop_pc() {
  // Returns the raw popped value; callers apply pc_mask_. Preserving the
  // unmasked bytes lets a wild return from a smashed stack be diagnosed
  // instead of silently wrapping into valid flash.
  //
  // Same fast path as push_pc: plain-RAM loads have no side effects, so
  // batching them is exact whenever all n bytes sit in [kExtIoEnd, end).
  const std::uint32_t sp_now = sp();
  const unsigned n = push_bytes_;
  if (sp_now + 1 >= kExtIoEnd && sp_now + n < data_size_) [[likely]] {
    std::uint32_t value = 0;
    for (unsigned i = 1; i <= n; ++i) value = (value << 8) | ram_[sp_now + i];
    set_sp(static_cast<std::uint16_t>(sp_now + n));
    return value;
  }
  std::uint32_t value = 0;
  if (n == 3) value = pop_byte();
  value = (value << 8) | pop_byte();
  value = (value << 8) | pop_byte();
  return value;
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

    // --- Two-register ALU ---------------------------------------------
    case Op::Add: {
      const std::uint8_t d = reg(in.rd), r = reg(in.rr);
      const std::uint8_t res = static_cast<std::uint8_t>(d + r);
      set_reg(in.rd, res);
      flags_add(d, r, 0, res);
      break;
    }
    case Op::Adc: {
      const std::uint8_t d = reg(in.rd), r = reg(in.rr);
      const std::uint8_t carry = flag(kC);
      const std::uint8_t res = static_cast<std::uint8_t>(d + r + carry);
      set_reg(in.rd, res);
      flags_add(d, r, carry, res);
      break;
    }
    case Op::Sub: {
      const std::uint8_t d = reg(in.rd), r = reg(in.rr);
      const std::uint8_t res = static_cast<std::uint8_t>(d - r);
      set_reg(in.rd, res);
      flags_sub(d, r, 0, res, /*keep_z=*/false);
      break;
    }
    case Op::Sbc: {
      const std::uint8_t d = reg(in.rd), r = reg(in.rr);
      const std::uint8_t borrow = flag(kC);
      const std::uint8_t res = static_cast<std::uint8_t>(d - r - borrow);
      set_reg(in.rd, res);
      flags_sub(d, r, borrow, res, /*keep_z=*/true);
      break;
    }
    case Op::And: {
      const std::uint8_t res = reg(in.rd) & reg(in.rr);
      set_reg(in.rd, res);
      flags_logic(res);
      break;
    }
    case Op::Or: {
      const std::uint8_t res = reg(in.rd) | reg(in.rr);
      set_reg(in.rd, res);
      flags_logic(res);
      break;
    }
    case Op::Eor: {
      const std::uint8_t res = reg(in.rd) ^ reg(in.rr);
      set_reg(in.rd, res);
      flags_logic(res);
      break;
    }
    case Op::Mov:
      set_reg(in.rd, reg(in.rr));
      break;
    case Op::Movw:
      set_reg(in.rd, reg(in.rr));
      set_reg(in.rd + 1, reg(in.rr + 1));
      break;
    case Op::Mul: {
      const std::uint16_t res =
          static_cast<std::uint16_t>(unsigned(reg(in.rd)) * reg(in.rr));
      set_reg(0, static_cast<std::uint8_t>(res & 0xFF));
      set_reg(1, static_cast<std::uint8_t>(res >> 8));
      set_sreg(sreg_mul(sreg(), res));
      cyc = 2;
      break;
    }
    case Op::Cp: {
      const std::uint8_t d = reg(in.rd), r = reg(in.rr);
      flags_sub(d, r, 0, static_cast<std::uint8_t>(d - r), false);
      break;
    }
    case Op::Cpc: {
      const std::uint8_t d = reg(in.rd), r = reg(in.rr);
      const std::uint8_t borrow = flag(kC);
      flags_sub(d, r, borrow, static_cast<std::uint8_t>(d - r - borrow),
                /*keep_z=*/true);
      break;
    }
    case Op::Cpse: {
      if (reg(in.rd) == reg(in.rr)) {
        next = skip_target(next);
        cyc = 2;
      }
      break;
    }

    // --- Immediate ALU -------------------------------------------------
    case Op::Ldi:
      set_reg(in.rd, static_cast<std::uint8_t>(in.k));
      break;
    case Op::Subi: {
      const std::uint8_t d = reg(in.rd), r = static_cast<std::uint8_t>(in.k);
      const std::uint8_t res = static_cast<std::uint8_t>(d - r);
      set_reg(in.rd, res);
      flags_sub(d, r, 0, res, false);
      break;
    }
    case Op::Sbci: {
      const std::uint8_t d = reg(in.rd), r = static_cast<std::uint8_t>(in.k);
      const std::uint8_t borrow = flag(kC);
      const std::uint8_t res = static_cast<std::uint8_t>(d - r - borrow);
      set_reg(in.rd, res);
      flags_sub(d, r, borrow, res, /*keep_z=*/true);
      break;
    }
    case Op::Andi: {
      const std::uint8_t res = reg(in.rd) & static_cast<std::uint8_t>(in.k);
      set_reg(in.rd, res);
      flags_logic(res);
      break;
    }
    case Op::Ori: {
      const std::uint8_t res = reg(in.rd) | static_cast<std::uint8_t>(in.k);
      set_reg(in.rd, res);
      flags_logic(res);
      break;
    }
    case Op::Cpi: {
      const std::uint8_t d = reg(in.rd), r = static_cast<std::uint8_t>(in.k);
      flags_sub(d, r, 0, static_cast<std::uint8_t>(d - r), false);
      break;
    }

    // --- One-register ALU ----------------------------------------------
    case Op::Com: {
      const std::uint8_t res = static_cast<std::uint8_t>(~reg(in.rd));
      set_reg(in.rd, res);
      set_sreg(sreg_com(sreg(), res));
      break;
    }
    case Op::Neg: {
      const std::uint8_t d = reg(in.rd);
      const std::uint8_t res = static_cast<std::uint8_t>(0 - d);
      set_reg(in.rd, res);
      set_sreg(sreg_neg(sreg(), d, res));
      break;
    }
    case Op::Inc: {
      const std::uint8_t res = static_cast<std::uint8_t>(reg(in.rd) + 1);
      set_reg(in.rd, res);
      set_sreg(sreg_inc(sreg(), res));
      break;
    }
    case Op::Dec: {
      const std::uint8_t res = static_cast<std::uint8_t>(reg(in.rd) - 1);
      set_reg(in.rd, res);
      set_sreg(sreg_dec(sreg(), res));
      break;
    }
    case Op::Swap: {
      const std::uint8_t d = reg(in.rd);
      set_reg(in.rd,
              static_cast<std::uint8_t>((d << 4) | (d >> 4)));
      break;
    }
    case Op::Asr: {
      const std::uint8_t d = reg(in.rd);
      const std::uint8_t res = static_cast<std::uint8_t>((d >> 1) | (d & 0x80));
      set_reg(in.rd, res);
      set_sreg(sreg_asr_ror(sreg(), d, res));
      break;
    }
    case Op::Lsr: {
      const std::uint8_t d = reg(in.rd);
      const std::uint8_t res = static_cast<std::uint8_t>(d >> 1);
      set_reg(in.rd, res);
      set_sreg(sreg_lsr(sreg(), d, res));
      break;
    }
    case Op::Ror: {
      const std::uint8_t d = reg(in.rd);
      const std::uint8_t res =
          static_cast<std::uint8_t>((d >> 1) | (flag(kC) ? 0x80 : 0));
      set_reg(in.rd, res);
      set_sreg(sreg_asr_ror(sreg(), d, res));
      break;
    }
    case Op::Adiw: {
      const std::uint16_t d = reg_pair(in.rd);
      const std::uint16_t res = static_cast<std::uint16_t>(d + in.k);
      set_reg_pair(in.rd, res);
      set_sreg(sreg_adiw(sreg(), d, res));
      cyc = 2;
      break;
    }
    case Op::Sbiw: {
      const std::uint16_t d = reg_pair(in.rd);
      const std::uint16_t res = static_cast<std::uint16_t>(d - in.k);
      set_reg_pair(in.rd, res);
      set_sreg(sreg_sbiw(sreg(), d, res));
      cyc = 2;
      break;
    }

    // --- Control flow ---------------------------------------------------
    case Op::Rjmp:
      next = (pc0 + 1 + static_cast<std::uint32_t>(in.target)) & pc_mask_;
      cyc = 2;
      break;
    case Op::Rcall: {
      const std::uint32_t ret = next;
      push_pc(ret);
      next = (pc0 + 1 + static_cast<std::uint32_t>(in.target)) & pc_mask_;
      cyc = spec_.pc_push_bytes == 3 ? 4 : 3;
      if constexpr (kTraced) tracer_->on_call(*this, pc0, next, ret);
      break;
    }
    case Op::Jmp:
      next = static_cast<std::uint32_t>(in.target) & pc_mask_;
      cyc = 3;
      break;
    case Op::Call: {
      const std::uint32_t ret = next;
      push_pc(ret);
      next = static_cast<std::uint32_t>(in.target) & pc_mask_;
      cyc = spec_.pc_push_bytes == 3 ? 5 : 4;
      if constexpr (kTraced) tracer_->on_call(*this, pc0, next, ret);
      break;
    }
    case Op::Ijmp:
      next = reg_pair(30) & pc_mask_;
      cyc = 2;
      break;
    case Op::Icall: {
      const std::uint32_t ret = next;
      push_pc(ret);
      next = reg_pair(30) & pc_mask_;
      cyc = spec_.pc_push_bytes == 3 ? 4 : 3;
      if constexpr (kTraced) tracer_->on_call(*this, pc0, next, ret);
      break;
    }
    case Op::Eijmp:
      next = ((static_cast<std::uint32_t>(data_.raw(kAddrEind)) << 16) |
              reg_pair(30)) &
             pc_mask_;
      cyc = 2;
      break;
    case Op::Eicall: {
      const std::uint32_t ret = next;
      push_pc(ret);
      next = ((static_cast<std::uint32_t>(data_.raw(kAddrEind)) << 16) |
              reg_pair(30)) &
             pc_mask_;
      cyc = 4;
      if constexpr (kTraced) tracer_->on_call(*this, pc0, next, ret);
      break;
    }
    case Op::Ret:
    case Op::Reti: {
      const std::uint32_t raw = pop_pc();
      next = raw & pc_mask_;
      last_ret_raw_words_ = raw;
      last_ret_wrapped_ = (raw & ~pc_mask_) != 0;
      if (in.op == Op::Reti) set_flag(kI, true);
      cyc = spec_.pc_push_bytes == 3 ? 5 : 4;
      if constexpr (kTraced) {
        tracer_->on_ret(*this, pc0, next, raw, in.op == Op::Reti);
      }
      break;
    }
    case Op::Brbs:
      if (flag(static_cast<SregBit>(in.bit))) {
        next = (pc0 + 1 + static_cast<std::uint32_t>(in.target)) & pc_mask_;
        cyc = 2;
      }
      break;
    case Op::Brbc:
      if (!flag(static_cast<SregBit>(in.bit))) {
        next = (pc0 + 1 + static_cast<std::uint32_t>(in.target)) & pc_mask_;
        cyc = 2;
      }
      break;
    case Op::Sbrc:
      if (!((reg(in.rd) >> in.bit) & 1)) {
        next = skip_target(next);
        cyc = 2;
      }
      break;
    case Op::Sbrs:
      if ((reg(in.rd) >> in.bit) & 1) {
        next = skip_target(next);
        cyc = 2;
      }
      break;
    case Op::Sbic:
      if (!((load_mem<kTraced>(kIoBase + in.k) >> in.bit) & 1)) {
        next = skip_target(next);
        cyc = 2;
      }
      break;
    case Op::Sbis:
      if ((load_mem<kTraced>(kIoBase + in.k) >> in.bit) & 1) {
        next = skip_target(next);
        cyc = 2;
      }
      break;

    // --- Data transfer ---------------------------------------------------
    case Op::Lds:
      set_reg(in.rd, load_mem<kTraced>(in.k));
      cyc = 2;
      break;
    case Op::Sts:
      store_mem<kTraced>(in.k, reg(in.rd));
      cyc = 2;
      break;
    case Op::LdX:
      set_reg(in.rd, load_mem<kTraced>(reg_pair(26)));
      cyc = 2;
      break;
    case Op::LdXInc: {
      const std::uint16_t x = reg_pair(26);
      set_reg(in.rd, load_mem<kTraced>(x));
      set_reg_pair(26, static_cast<std::uint16_t>(x + 1));
      cyc = 2;
      break;
    }
    case Op::LdXDec: {
      const std::uint16_t x = static_cast<std::uint16_t>(reg_pair(26) - 1);
      set_reg_pair(26, x);
      set_reg(in.rd, load_mem<kTraced>(x));
      cyc = 2;
      break;
    }
    case Op::LdYInc: {
      const std::uint16_t y = reg_pair(28);
      set_reg(in.rd, load_mem<kTraced>(y));
      set_reg_pair(28, static_cast<std::uint16_t>(y + 1));
      cyc = 2;
      break;
    }
    case Op::LdYDec: {
      const std::uint16_t y = static_cast<std::uint16_t>(reg_pair(28) - 1);
      set_reg_pair(28, y);
      set_reg(in.rd, load_mem<kTraced>(y));
      cyc = 2;
      break;
    }
    case Op::LddY:
      set_reg(in.rd, load_mem<kTraced>(static_cast<std::uint16_t>(reg_pair(28) + in.k)));
      cyc = 2;
      break;
    case Op::LdZInc: {
      const std::uint16_t z = reg_pair(30);
      set_reg(in.rd, load_mem<kTraced>(z));
      set_reg_pair(30, static_cast<std::uint16_t>(z + 1));
      cyc = 2;
      break;
    }
    case Op::LdZDec: {
      const std::uint16_t z = static_cast<std::uint16_t>(reg_pair(30) - 1);
      set_reg_pair(30, z);
      set_reg(in.rd, load_mem<kTraced>(z));
      cyc = 2;
      break;
    }
    case Op::LddZ:
      set_reg(in.rd, load_mem<kTraced>(static_cast<std::uint16_t>(reg_pair(30) + in.k)));
      cyc = 2;
      break;
    case Op::StX:
      store_mem<kTraced>(reg_pair(26), reg(in.rd));
      cyc = 2;
      break;
    case Op::StXInc: {
      const std::uint16_t x = reg_pair(26);
      store_mem<kTraced>(x, reg(in.rd));
      set_reg_pair(26, static_cast<std::uint16_t>(x + 1));
      cyc = 2;
      break;
    }
    case Op::StXDec: {
      const std::uint16_t x = static_cast<std::uint16_t>(reg_pair(26) - 1);
      set_reg_pair(26, x);
      store_mem<kTraced>(x, reg(in.rd));
      cyc = 2;
      break;
    }
    case Op::StYInc: {
      const std::uint16_t y = reg_pair(28);
      store_mem<kTraced>(y, reg(in.rd));
      set_reg_pair(28, static_cast<std::uint16_t>(y + 1));
      cyc = 2;
      break;
    }
    case Op::StYDec: {
      const std::uint16_t y = static_cast<std::uint16_t>(reg_pair(28) - 1);
      set_reg_pair(28, y);
      store_mem<kTraced>(y, reg(in.rd));
      cyc = 2;
      break;
    }
    case Op::StdY:
      store_mem<kTraced>(static_cast<std::uint16_t>(reg_pair(28) + in.k), reg(in.rd));
      cyc = 2;
      break;
    case Op::StZInc: {
      const std::uint16_t z = reg_pair(30);
      store_mem<kTraced>(z, reg(in.rd));
      set_reg_pair(30, static_cast<std::uint16_t>(z + 1));
      cyc = 2;
      break;
    }
    case Op::StZDec: {
      const std::uint16_t z = static_cast<std::uint16_t>(reg_pair(30) - 1);
      set_reg_pair(30, z);
      store_mem<kTraced>(z, reg(in.rd));
      cyc = 2;
      break;
    }
    case Op::StdZ:
      store_mem<kTraced>(static_cast<std::uint16_t>(reg_pair(30) + in.k), reg(in.rd));
      cyc = 2;
      break;
    case Op::LpmR0:
      set_reg(0, flash_.byte(reg_pair(30)));
      cyc = 3;
      break;
    case Op::Lpm:
      set_reg(in.rd, flash_.byte(reg_pair(30)));
      cyc = 3;
      break;
    case Op::LpmInc: {
      const std::uint16_t z = reg_pair(30);
      set_reg(in.rd, flash_.byte(z));
      set_reg_pair(30, static_cast<std::uint16_t>(z + 1));
      cyc = 3;
      break;
    }
    case Op::ElpmR0:
    case Op::Elpm:
    case Op::ElpmInc: {
      const std::uint32_t z =
          (static_cast<std::uint32_t>(data_.raw(kAddrRampz)) << 16) |
          reg_pair(30);
      const std::uint8_t dest = (in.op == Op::ElpmR0) ? 0 : in.rd;
      set_reg(dest, flash_.byte(z));
      if (in.op == Op::ElpmInc) {
        const std::uint32_t z1 = z + 1;
        set_reg_pair(30, static_cast<std::uint16_t>(z1 & 0xFFFF));
        data_.set_raw(kAddrRampz, static_cast<std::uint8_t>((z1 >> 16) & 0xFF));
      }
      cyc = 3;
      break;
    }
    case Op::In:
      set_reg(in.rd, load_mem<kTraced>(kIoBase + in.k));
      break;
    case Op::Out:
      store_mem<kTraced>(kIoBase + in.k, reg(in.rd));
      break;
    case Op::Push:
      push_byte(reg(in.rd));
      cyc = 2;
      break;
    case Op::Pop:
      set_reg(in.rd, pop_byte());
      cyc = 2;
      break;

    // --- Bit operations ---------------------------------------------------
    case Op::Sbi: {
      const std::uint32_t addr = kIoBase + in.k;
      store_mem<kTraced>(addr, static_cast<std::uint8_t>(load_mem<kTraced>(addr) |
                                                  (1u << in.bit)));
      cyc = 2;
      break;
    }
    case Op::Cbi: {
      const std::uint32_t addr = kIoBase + in.k;
      store_mem<kTraced>(addr, static_cast<std::uint8_t>(load_mem<kTraced>(addr) &
                                                  ~(1u << in.bit)));
      cyc = 2;
      break;
    }
    case Op::Bset:
      set_flag(static_cast<SregBit>(in.bit), true);
      break;
    case Op::Bclr:
      set_flag(static_cast<SregBit>(in.bit), false);
      break;
    case Op::Bst:
      set_flag(kT, (reg(in.rd) >> in.bit) & 1);
      break;
    case Op::Bld: {
      std::uint8_t d = reg(in.rd);
      if (flag(kT)) {
        d |= static_cast<std::uint8_t>(1u << in.bit);
      } else {
        d &= static_cast<std::uint8_t>(~(1u << in.bit));
      }
      set_reg(in.rd, d);
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
    set_flag(kI, false);
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
  const std::uint64_t deadline = start + cycle_budget;
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
  const std::uint32_t ram_span = data_size_ - kExtIoEnd;
  const unsigned push_n = push_bytes_;

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
                stat_io = 0, stat_self = 0, stat_steps = 0;
  const auto flush_stats = [&] {
    tier_.stats.blocks_executed += stat_blocks;
    tier_.stats.block_instructions += stat_insns;
    tier_.stats.side_exits += stat_sides;
    tier_.stats.io_dispatches += stat_io;
    tier_.stats.self_loops += stat_self;
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
      // Hot block fields in registers: byte stores through `ram` may alias
      // the block array, so member reads after a store would reload.
      const std::uint32_t blk_head = bp->head_pc;
      const std::uint32_t blk_worst = bp->worst_cycles;
      // The interpreter checks the run deadline and the I/O tick deadline
      // after every instruction; a block may only run whole if neither can
      // trigger inside it. worst_cycles bounds every prefix, so past this
      // guard the block is indistinguishable from single-stepping.
      {
        const std::uint64_t io_deadline = io_.next_deadline();
        const std::uint64_t stop =
            io_deadline < deadline ? io_deadline : deadline;
        if (cycles + blk_worst >= stop) [[unlikely]] {
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
      const TierOp* const __restrict base = tarena + bp->first_op;
      const TierOp* __restrict op = base;
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
          &&L_Add, &&L_Adc, &&L_Sub, &&L_Sbc, &&L_And, &&L_Or, &&L_Eor,
          &&L_Mov, &&L_Movw, &&L_Mul, &&L_Cp, &&L_Cpc, &&L_Ldi, &&L_Subi,
          &&L_Sbci, &&L_Andi, &&L_Ori, &&L_Cpi, &&L_Com, &&L_Neg, &&L_Inc,
          &&L_Dec, &&L_Swap, &&L_Asr, &&L_Lsr, &&L_Ror, &&L_Adiw, &&L_Sbiw,
          &&L_Bset, &&L_Bclr, &&L_Bst, &&L_Bld, &&L_Nop, &&L_LdsRam,
          &&L_StsRam, &&L_LdsLow, &&L_StsLow, &&L_LdsSreg, &&L_In,
          &&L_InSreg, &&L_Out, &&L_Sbi, &&L_Cbi, &&L_LdX, &&L_LdXInc,
          &&L_LdXDec, &&L_LdYInc, &&L_LdYDec, &&L_LddY, &&L_LdZInc,
          &&L_LdZDec, &&L_LddZ, &&L_StX, &&L_StXInc, &&L_StXDec,
          &&L_StYInc, &&L_StYDec, &&L_StdY, &&L_StZInc, &&L_StZDec,
          &&L_StdZ, &&L_LpmR0, &&L_Lpm, &&L_LpmInc, &&L_ElpmR0, &&L_Elpm,
          &&L_ElpmInc, &&L_Push, &&L_Pop, &&L_CallPush, &&L_Lds2, &&L_Sts2,
          &&L_Ldi2, &&L_LdiAdd, &&L_LdsAdd, &&L_LdsSub, &&L_AddSts,
          &&L_RorLdi, &&L_AddAdc, &&L_AddAdd, &&L_SubSbc, &&L_SubiSbci,
          &&L_AsrRor, &&L_RorAsr, &&L_LdsSts, &&L_StsLds, &&L_CondBrbs,
          &&L_CondBrbc, &&L_CondCpse, &&L_CondSbrc, &&L_CondSbrs,
          &&L_CondSbic, &&L_CondSbis, &&L_CondRet, &&L_TermIjmp, &&L_TermEijmp,
          &&L_TermIcall, &&L_TermEicall, &&L_TermRet, &&L_TermReti,
          &&L_TermBsetI, &&L_TermOutSreg, &&L_TermFall,
      };
      static_assert(sizeof(kJump) / sizeof(kJump[0]) == kTierOpKinds,
                    "dispatch table must cover every TierOpKind");
    exec_entry:
      goto* kJump[static_cast<std::size_t>(op->kind)];

    // --- ALU -----------------------------------------------------------
    L_Add: {
      const std::uint8_t d = ram[op->a], r = ram[op->b];
      const std::uint8_t res = static_cast<std::uint8_t>(d + r);
      ram[op->a] = res;
      sreg = sreg_add(sreg, d, r, res);
    }
      MAVR_TIER_NEXT();
    L_Adc: {
      const std::uint8_t d = ram[op->a], r = ram[op->b];
      const std::uint8_t carry = sreg & 1;
      const std::uint8_t res = static_cast<std::uint8_t>(d + r + carry);
      ram[op->a] = res;
      sreg = sreg_add(sreg, d, r, res);
    }
      MAVR_TIER_NEXT();
    L_Sub: {
      const std::uint8_t d = ram[op->a], r = ram[op->b];
      const std::uint8_t res = static_cast<std::uint8_t>(d - r);
      ram[op->a] = res;
      sreg = sreg_sub(sreg, d, r, res, /*keep_z=*/false);
    }
      MAVR_TIER_NEXT();
    L_Sbc: {
      const std::uint8_t d = ram[op->a], r = ram[op->b];
      const std::uint8_t borrow = sreg & 1;
      const std::uint8_t res = static_cast<std::uint8_t>(d - r - borrow);
      ram[op->a] = res;
      sreg = sreg_sub(sreg, d, r, res, /*keep_z=*/true);
    }
      MAVR_TIER_NEXT();
    L_And: {
      const std::uint8_t res = ram[op->a] & ram[op->b];
      ram[op->a] = res;
      sreg = sreg_logic(sreg, res);
    }
      MAVR_TIER_NEXT();
    L_Or: {
      const std::uint8_t res = ram[op->a] | ram[op->b];
      ram[op->a] = res;
      sreg = sreg_logic(sreg, res);
    }
      MAVR_TIER_NEXT();
    L_Eor: {
      const std::uint8_t res = ram[op->a] ^ ram[op->b];
      ram[op->a] = res;
      sreg = sreg_logic(sreg, res);
    }
      MAVR_TIER_NEXT();
    L_Mov:
      ram[op->a] = ram[op->b];
      MAVR_TIER_NEXT();
    L_Movw:
      ram[op->a] = ram[op->b];
      ram[op->a + 1] = ram[op->b + 1];
      MAVR_TIER_NEXT();
    L_Mul: {
      const std::uint16_t res =
          static_cast<std::uint16_t>(unsigned(ram[op->a]) * ram[op->b]);
      ram[0] = static_cast<std::uint8_t>(res & 0xFF);
      ram[1] = static_cast<std::uint8_t>(res >> 8);
      sreg = sreg_mul(sreg, res);
    }
      MAVR_TIER_NEXT();
    L_Cp: {
      const std::uint8_t d = ram[op->a], r = ram[op->b];
      sreg = sreg_sub(sreg, d, r, static_cast<std::uint8_t>(d - r), false);
    }
      MAVR_TIER_NEXT();
    L_Cpc: {
      const std::uint8_t d = ram[op->a], r = ram[op->b];
      const std::uint8_t borrow = sreg & 1;
      sreg = sreg_sub(sreg, d, r,
                      static_cast<std::uint8_t>(d - r - borrow),
                      /*keep_z=*/true);
    }
      MAVR_TIER_NEXT();
    L_Ldi:
      ram[op->a] = static_cast<std::uint8_t>(op->k);
      MAVR_TIER_NEXT();
    L_Subi: {
      const std::uint8_t d = ram[op->a];
      const std::uint8_t r = static_cast<std::uint8_t>(op->k);
      const std::uint8_t res = static_cast<std::uint8_t>(d - r);
      ram[op->a] = res;
      sreg = sreg_sub(sreg, d, r, res, false);
    }
      MAVR_TIER_NEXT();
    L_Sbci: {
      const std::uint8_t d = ram[op->a];
      const std::uint8_t r = static_cast<std::uint8_t>(op->k);
      const std::uint8_t borrow = sreg & 1;
      const std::uint8_t res = static_cast<std::uint8_t>(d - r - borrow);
      ram[op->a] = res;
      sreg = sreg_sub(sreg, d, r, res, /*keep_z=*/true);
    }
      MAVR_TIER_NEXT();
    L_Andi: {
      const std::uint8_t res = ram[op->a] & static_cast<std::uint8_t>(op->k);
      ram[op->a] = res;
      sreg = sreg_logic(sreg, res);
    }
      MAVR_TIER_NEXT();
    L_Ori: {
      const std::uint8_t res = ram[op->a] | static_cast<std::uint8_t>(op->k);
      ram[op->a] = res;
      sreg = sreg_logic(sreg, res);
    }
      MAVR_TIER_NEXT();
    L_Cpi: {
      const std::uint8_t d = ram[op->a];
      const std::uint8_t r = static_cast<std::uint8_t>(op->k);
      sreg = sreg_sub(sreg, d, r, static_cast<std::uint8_t>(d - r), false);
    }
      MAVR_TIER_NEXT();
    L_Com: {
      const std::uint8_t res = static_cast<std::uint8_t>(~ram[op->a]);
      ram[op->a] = res;
      sreg = sreg_com(sreg, res);
    }
      MAVR_TIER_NEXT();
    L_Neg: {
      const std::uint8_t d = ram[op->a];
      const std::uint8_t res = static_cast<std::uint8_t>(0 - d);
      ram[op->a] = res;
      sreg = sreg_neg(sreg, d, res);
    }
      MAVR_TIER_NEXT();
    L_Inc: {
      const std::uint8_t res = static_cast<std::uint8_t>(ram[op->a] + 1);
      ram[op->a] = res;
      sreg = sreg_inc(sreg, res);
    }
      MAVR_TIER_NEXT();
    L_Dec: {
      const std::uint8_t res = static_cast<std::uint8_t>(ram[op->a] - 1);
      ram[op->a] = res;
      sreg = sreg_dec(sreg, res);
    }
      MAVR_TIER_NEXT();
    L_Swap: {
      const std::uint8_t d = ram[op->a];
      ram[op->a] = static_cast<std::uint8_t>((d << 4) | (d >> 4));
    }
      MAVR_TIER_NEXT();
    L_Asr: {
      const std::uint8_t d = ram[op->a];
      const std::uint8_t res =
          static_cast<std::uint8_t>((d >> 1) | (d & 0x80));
      ram[op->a] = res;
      sreg = sreg_asr_ror(sreg, d, res);
    }
      MAVR_TIER_NEXT();
    L_Lsr: {
      const std::uint8_t d = ram[op->a];
      const std::uint8_t res = static_cast<std::uint8_t>(d >> 1);
      ram[op->a] = res;
      sreg = sreg_lsr(sreg, d, res);
    }
      MAVR_TIER_NEXT();
    L_Ror: {
      const std::uint8_t d = ram[op->a];
      const std::uint8_t res =
          static_cast<std::uint8_t>((d >> 1) | ((sreg & 1) ? 0x80 : 0));
      ram[op->a] = res;
      sreg = sreg_asr_ror(sreg, d, res);
    }
      MAVR_TIER_NEXT();
    L_Adiw: {
      const std::uint16_t d =
          static_cast<std::uint16_t>(ram[op->a] | (ram[op->a + 1] << 8));
      const std::uint16_t res = static_cast<std::uint16_t>(d + op->k);
      ram[op->a] = static_cast<std::uint8_t>(res & 0xFF);
      ram[op->a + 1] = static_cast<std::uint8_t>(res >> 8);
      sreg = sreg_adiw(sreg, d, res);
    }
      MAVR_TIER_NEXT();
    L_Sbiw: {
      const std::uint16_t d =
          static_cast<std::uint16_t>(ram[op->a] | (ram[op->a + 1] << 8));
      const std::uint16_t res = static_cast<std::uint16_t>(d - op->k);
      ram[op->a] = static_cast<std::uint8_t>(res & 0xFF);
      ram[op->a + 1] = static_cast<std::uint8_t>(res >> 8);
      sreg = sreg_sbiw(sreg, d, res);
    }
      MAVR_TIER_NEXT();
    L_Bset:  // never bit I (that encoding terminates the block)
      sreg |= static_cast<std::uint8_t>(1u << op->b);
      MAVR_TIER_NEXT();
    L_Bclr:
      sreg &= static_cast<std::uint8_t>(~(1u << op->b));
      MAVR_TIER_NEXT();
    L_Bst:
      sreg = static_cast<std::uint8_t>(
          (sreg & ~fb(kT)) | (((ram[op->a] >> op->b) & 1u) << kT));
      MAVR_TIER_NEXT();
    L_Bld: {
      std::uint8_t d = ram[op->a];
      if (sreg & fb(kT)) {
        d |= static_cast<std::uint8_t>(1u << op->b);
      } else {
        d &= static_cast<std::uint8_t>(~(1u << op->b));
      }
      ram[op->a] = d;
    }
      MAVR_TIER_NEXT();
    L_Nop:
      MAVR_TIER_NEXT();

    // --- static-address data transfer ----------------------------------
    L_LdsRam:
      ram[op->a] = ram[op->k];
      MAVR_TIER_NEXT();
    L_StsRam:
      ram[op->k] = ram[op->a];
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
        MAVR_TIER_IO_CALL(ram[op->a] = data_.load(op->k));
        next_pc = op->target;
        term_cyc = op->cyc;
        goto block_done;
      }
      ram[op->a] = ram[op->k];
      MAVR_TIER_NEXT();
    L_StsLow:
      if (disp[op->k] & IoBus::kHandlesWrite) [[unlikely]] {
        MAVR_TIER_IO_CALL(data_.store(op->k, ram[op->a]));
        next_pc = op->target;
        term_cyc = op->cyc;
        goto block_done;
      }
      ram[op->k] = ram[op->a];
      MAVR_TIER_NEXT();
    L_LdsSreg:
      if (disp[op->k] & IoBus::kHandlesRead) goto side_exit;
      ram[op->a] = sreg;  // the live value; ram[0x5F] may be stale in-block
      MAVR_TIER_NEXT();
    L_In:
      if (disp[op->k] & IoBus::kHandlesRead) [[unlikely]] {
        MAVR_TIER_IO_CALL(ram[op->a] = data_.load(op->k));
        next_pc = op->target;
        term_cyc = op->cyc;
        goto block_done;
      }
      ram[op->a] = ram[op->k];
      MAVR_TIER_NEXT();
    L_InSreg:
      if (disp[op->k] & IoBus::kHandlesRead) goto side_exit;
      ram[op->a] = sreg;
      MAVR_TIER_NEXT();
    L_Out:
      if (disp[op->k] & IoBus::kHandlesWrite) [[unlikely]] {
        MAVR_TIER_IO_CALL(data_.store(op->k, ram[op->a]));
        next_pc = op->target;
        term_cyc = op->cyc;
        goto block_done;
      }
      ram[op->k] = ram[op->a];
      MAVR_TIER_NEXT();
    L_Sbi:
      // The interpreter performs a dispatched load *and* store; route
      // both through the bus if a device handles either side.
      if (disp[op->k] & (IoBus::kHandlesRead | IoBus::kHandlesWrite))
          [[unlikely]] {
        MAVR_TIER_IO_CALL(data_.store(
            op->k,
            static_cast<std::uint8_t>(data_.load(op->k) | (1u << op->b))));
        next_pc = op->target;
        term_cyc = op->cyc;
        goto block_done;
      }
      ram[op->k] |= static_cast<std::uint8_t>(1u << op->b);
      MAVR_TIER_NEXT();
    L_Cbi:
      if (disp[op->k] & (IoBus::kHandlesRead | IoBus::kHandlesWrite))
          [[unlikely]] {
        MAVR_TIER_IO_CALL(data_.store(
            op->k,
            static_cast<std::uint8_t>(data_.load(op->k) & ~(1u << op->b))));
        next_pc = op->target;
        term_cyc = op->cyc;
        goto block_done;
      }
      ram[op->k] &= static_cast<std::uint8_t>(~(1u << op->b));
      MAVR_TIER_NEXT();

    // --- pointer-addressed data transfer -------------------------------
    // Address computed first, then guarded against the plain-RAM window
    // [kExtIoEnd, data_size): anything below (register file, I/O, SP/SREG
    // aliasing) or wrapping side-exits before architectural state moves.
    L_LdX: {
      const std::uint32_t a =
          static_cast<std::uint16_t>(ram[26] | (ram[27] << 8));
      if (a - kExtIoEnd >= ram_span) goto side_exit;
      ram[op->a] = ram[a];
    }
      MAVR_TIER_NEXT();
    L_LdXInc: {
      const std::uint32_t a =
          static_cast<std::uint16_t>(ram[26] | (ram[27] << 8));
      if (a - kExtIoEnd >= ram_span) goto side_exit;
      ram[op->a] = ram[a];
      const std::uint16_t p = static_cast<std::uint16_t>(a + 1);
      ram[26] = static_cast<std::uint8_t>(p & 0xFF);
      ram[27] = static_cast<std::uint8_t>(p >> 8);
    }
      MAVR_TIER_NEXT();
    L_LdXDec: {
      const std::uint32_t a = static_cast<std::uint16_t>(
          static_cast<std::uint16_t>(ram[26] | (ram[27] << 8)) - 1);
      if (a - kExtIoEnd >= ram_span) goto side_exit;
      ram[26] = static_cast<std::uint8_t>(a & 0xFF);
      ram[27] = static_cast<std::uint8_t>(a >> 8);
      ram[op->a] = ram[a];
    }
      MAVR_TIER_NEXT();
    L_LdYInc: {
      const std::uint32_t a =
          static_cast<std::uint16_t>(ram[28] | (ram[29] << 8));
      if (a - kExtIoEnd >= ram_span) goto side_exit;
      ram[op->a] = ram[a];
      const std::uint16_t p = static_cast<std::uint16_t>(a + 1);
      ram[28] = static_cast<std::uint8_t>(p & 0xFF);
      ram[29] = static_cast<std::uint8_t>(p >> 8);
    }
      MAVR_TIER_NEXT();
    L_LdYDec: {
      const std::uint32_t a = static_cast<std::uint16_t>(
          static_cast<std::uint16_t>(ram[28] | (ram[29] << 8)) - 1);
      if (a - kExtIoEnd >= ram_span) goto side_exit;
      ram[28] = static_cast<std::uint8_t>(a & 0xFF);
      ram[29] = static_cast<std::uint8_t>(a >> 8);
      ram[op->a] = ram[a];
    }
      MAVR_TIER_NEXT();
    L_LddY: {
      const std::uint32_t a = static_cast<std::uint16_t>(
          static_cast<std::uint16_t>(ram[28] | (ram[29] << 8)) + op->k);
      if (a - kExtIoEnd >= ram_span) goto side_exit;
      ram[op->a] = ram[a];
    }
      MAVR_TIER_NEXT();
    L_LdZInc: {
      const std::uint32_t a =
          static_cast<std::uint16_t>(ram[30] | (ram[31] << 8));
      if (a - kExtIoEnd >= ram_span) goto side_exit;
      ram[op->a] = ram[a];
      const std::uint16_t p = static_cast<std::uint16_t>(a + 1);
      ram[30] = static_cast<std::uint8_t>(p & 0xFF);
      ram[31] = static_cast<std::uint8_t>(p >> 8);
    }
      MAVR_TIER_NEXT();
    L_LdZDec: {
      const std::uint32_t a = static_cast<std::uint16_t>(
          static_cast<std::uint16_t>(ram[30] | (ram[31] << 8)) - 1);
      if (a - kExtIoEnd >= ram_span) goto side_exit;
      ram[30] = static_cast<std::uint8_t>(a & 0xFF);
      ram[31] = static_cast<std::uint8_t>(a >> 8);
      ram[op->a] = ram[a];
    }
      MAVR_TIER_NEXT();
    L_LddZ: {
      const std::uint32_t a = static_cast<std::uint16_t>(
          static_cast<std::uint16_t>(ram[30] | (ram[31] << 8)) + op->k);
      if (a - kExtIoEnd >= ram_span) goto side_exit;
      ram[op->a] = ram[a];
    }
      MAVR_TIER_NEXT();
    L_StX: {
      const std::uint32_t a =
          static_cast<std::uint16_t>(ram[26] | (ram[27] << 8));
      if (a - kExtIoEnd >= ram_span) goto side_exit;
      ram[a] = ram[op->a];
    }
      MAVR_TIER_NEXT();
    L_StXInc: {
      const std::uint32_t a =
          static_cast<std::uint16_t>(ram[26] | (ram[27] << 8));
      if (a - kExtIoEnd >= ram_span) goto side_exit;
      ram[a] = ram[op->a];
      const std::uint16_t p = static_cast<std::uint16_t>(a + 1);
      ram[26] = static_cast<std::uint8_t>(p & 0xFF);
      ram[27] = static_cast<std::uint8_t>(p >> 8);
    }
      MAVR_TIER_NEXT();
    L_StXDec: {
      const std::uint32_t a = static_cast<std::uint16_t>(
          static_cast<std::uint16_t>(ram[26] | (ram[27] << 8)) - 1);
      if (a - kExtIoEnd >= ram_span) goto side_exit;
      ram[26] = static_cast<std::uint8_t>(a & 0xFF);
      ram[27] = static_cast<std::uint8_t>(a >> 8);
      ram[a] = ram[op->a];  // pointer updated first, like the interpreter
    }
      MAVR_TIER_NEXT();
    L_StYInc: {
      const std::uint32_t a =
          static_cast<std::uint16_t>(ram[28] | (ram[29] << 8));
      if (a - kExtIoEnd >= ram_span) goto side_exit;
      ram[a] = ram[op->a];
      const std::uint16_t p = static_cast<std::uint16_t>(a + 1);
      ram[28] = static_cast<std::uint8_t>(p & 0xFF);
      ram[29] = static_cast<std::uint8_t>(p >> 8);
    }
      MAVR_TIER_NEXT();
    L_StYDec: {
      const std::uint32_t a = static_cast<std::uint16_t>(
          static_cast<std::uint16_t>(ram[28] | (ram[29] << 8)) - 1);
      if (a - kExtIoEnd >= ram_span) goto side_exit;
      ram[28] = static_cast<std::uint8_t>(a & 0xFF);
      ram[29] = static_cast<std::uint8_t>(a >> 8);
      ram[a] = ram[op->a];
    }
      MAVR_TIER_NEXT();
    L_StdY: {
      const std::uint32_t a = static_cast<std::uint16_t>(
          static_cast<std::uint16_t>(ram[28] | (ram[29] << 8)) + op->k);
      if (a - kExtIoEnd >= ram_span) goto side_exit;
      ram[a] = ram[op->a];
    }
      MAVR_TIER_NEXT();
    L_StZInc: {
      const std::uint32_t a =
          static_cast<std::uint16_t>(ram[30] | (ram[31] << 8));
      if (a - kExtIoEnd >= ram_span) goto side_exit;
      ram[a] = ram[op->a];
      const std::uint16_t p = static_cast<std::uint16_t>(a + 1);
      ram[30] = static_cast<std::uint8_t>(p & 0xFF);
      ram[31] = static_cast<std::uint8_t>(p >> 8);
    }
      MAVR_TIER_NEXT();
    L_StZDec: {
      const std::uint32_t a = static_cast<std::uint16_t>(
          static_cast<std::uint16_t>(ram[30] | (ram[31] << 8)) - 1);
      if (a - kExtIoEnd >= ram_span) goto side_exit;
      ram[30] = static_cast<std::uint8_t>(a & 0xFF);
      ram[31] = static_cast<std::uint8_t>(a >> 8);
      ram[a] = ram[op->a];
    }
      MAVR_TIER_NEXT();
    L_StdZ: {
      const std::uint32_t a = static_cast<std::uint16_t>(
          static_cast<std::uint16_t>(ram[30] | (ram[31] << 8)) + op->k);
      if (a - kExtIoEnd >= ram_span) goto side_exit;
      ram[a] = ram[op->a];
    }
      MAVR_TIER_NEXT();
    L_LpmR0:
      ram[0] = flash_.byte(
          static_cast<std::uint16_t>(ram[30] | (ram[31] << 8)));
      MAVR_TIER_NEXT();
    L_Lpm:
      ram[op->a] = flash_.byte(
          static_cast<std::uint16_t>(ram[30] | (ram[31] << 8)));
      MAVR_TIER_NEXT();
    L_LpmInc: {
      const std::uint16_t z =
          static_cast<std::uint16_t>(ram[30] | (ram[31] << 8));
      ram[op->a] = flash_.byte(z);
      const std::uint16_t p = static_cast<std::uint16_t>(z + 1);
      ram[30] = static_cast<std::uint8_t>(p & 0xFF);
      ram[31] = static_cast<std::uint8_t>(p >> 8);
    }
      MAVR_TIER_NEXT();
    L_ElpmR0: {
      const std::uint32_t z =
          (static_cast<std::uint32_t>(ram[kAddrRampz]) << 16) |
          static_cast<std::uint16_t>(ram[30] | (ram[31] << 8));
      ram[0] = flash_.byte(z);
    }
      MAVR_TIER_NEXT();
    L_Elpm: {
      const std::uint32_t z =
          (static_cast<std::uint32_t>(ram[kAddrRampz]) << 16) |
          static_cast<std::uint16_t>(ram[30] | (ram[31] << 8));
      ram[op->a] = flash_.byte(z);
    }
      MAVR_TIER_NEXT();
    L_ElpmInc: {
      const std::uint32_t z =
          (static_cast<std::uint32_t>(ram[kAddrRampz]) << 16) |
          static_cast<std::uint16_t>(ram[30] | (ram[31] << 8));
      ram[op->a] = flash_.byte(z);
      const std::uint32_t z1 = z + 1;
      ram[30] = static_cast<std::uint8_t>(z1 & 0xFF);
      ram[31] = static_cast<std::uint8_t>((z1 >> 8) & 0xFF);
      ram[kAddrRampz] = static_cast<std::uint8_t>((z1 >> 16) & 0xFF);
    }
      MAVR_TIER_NEXT();
    L_Push: {
      const std::uint32_t sp_now =
          static_cast<std::uint16_t>(ram[kAddrSpl] | (ram[kAddrSph] << 8));
      if (sp_now - kExtIoEnd >= ram_span) goto side_exit;
      ram[sp_now] = ram[op->a];
      const std::uint16_t p = static_cast<std::uint16_t>(sp_now - 1);
      ram[kAddrSpl] = static_cast<std::uint8_t>(p & 0xFF);
      ram[kAddrSph] = static_cast<std::uint8_t>(p >> 8);
    }
      MAVR_TIER_NEXT();
    L_Pop: {
      const std::uint32_t a = static_cast<std::uint16_t>(
          static_cast<std::uint16_t>(ram[kAddrSpl] | (ram[kAddrSph] << 8)) +
          1);
      if (a - kExtIoEnd >= ram_span) goto side_exit;
      ram[kAddrSpl] = static_cast<std::uint8_t>(a & 0xFF);
      ram[kAddrSph] = static_cast<std::uint8_t>(a >> 8);
      ram[op->a] = ram[a];
    }
      MAVR_TIER_NEXT();

    // --- followed static call: push and keep executing ------------------
    L_CallPush: {
      const std::uint32_t sp_now =
          static_cast<std::uint16_t>(ram[kAddrSpl] | (ram[kAddrSph] << 8));
      if (sp_now < kExtIoEnd + (push_n - 1) || sp_now >= data_size) {
        goto side_exit;
      }
      const std::uint32_t ret = op->target2;
      ram[sp_now] = static_cast<std::uint8_t>(ret & 0xFF);
      ram[sp_now - 1] = static_cast<std::uint8_t>((ret >> 8) & 0xFF);
      if (push_n == 3) {
        ram[sp_now - 2] = static_cast<std::uint8_t>((ret >> 16) & 0xFF);
      }
      const std::uint16_t p = static_cast<std::uint16_t>(sp_now - push_n);
      ram[kAddrSpl] = static_cast<std::uint8_t>(p & 0xFF);
      ram[kAddrSph] = static_cast<std::uint8_t>(p >> 8);
    }
      MAVR_TIER_NEXT();

    // --- fused pairs ----------------------------------------------------
    // Each retires two instructions in one dispatch (ins_before prefix
    // sums account for that). Operand packing is documented at the
    // translator's fuse(); flag work for the first half is skipped
    // whenever the second half provably overwrites it (only the carry —
    // and for SBC-likes the Z gate — survives the boundary).
    L_Lds2:
      ram[op->a] = ram[op->k];
      ram[op->b] = ram[op->target];
      MAVR_TIER_NEXT();
    L_Sts2:
      ram[op->k] = ram[op->a];
      ram[op->target] = ram[op->b];
      MAVR_TIER_NEXT();
    L_Ldi2:
      ram[op->a] = static_cast<std::uint8_t>(op->k);
      ram[op->b] = static_cast<std::uint8_t>(op->target);
      MAVR_TIER_NEXT();
    L_LdiAdd: {
      ram[op->a] = static_cast<std::uint8_t>(op->k);
      const std::uint8_t d = ram[op->b], r = ram[op->target];
      const std::uint8_t res = static_cast<std::uint8_t>(d + r);
      ram[op->b] = res;
      sreg = sreg_add(sreg, d, r, res);
    }
      MAVR_TIER_NEXT();
    L_LdsAdd: {
      ram[op->a] = ram[op->k];
      const std::uint8_t d = ram[op->b], r = ram[op->target];
      const std::uint8_t res = static_cast<std::uint8_t>(d + r);
      ram[op->b] = res;
      sreg = sreg_add(sreg, d, r, res);
    }
      MAVR_TIER_NEXT();
    L_LdsSub: {
      ram[op->a] = ram[op->k];
      const std::uint8_t d = ram[op->b], r = ram[op->target];
      const std::uint8_t res = static_cast<std::uint8_t>(d - r);
      ram[op->b] = res;
      sreg = sreg_sub(sreg, d, r, res, /*keep_z=*/false);
    }
      MAVR_TIER_NEXT();
    L_AddSts: {
      const std::uint8_t d = ram[op->a], r = ram[op->b];
      const std::uint8_t res = static_cast<std::uint8_t>(d + r);
      ram[op->a] = res;
      sreg = sreg_add(sreg, d, r, res);
      ram[op->k] = ram[op->target];  // STS source may be the ADD's dest
    }
      MAVR_TIER_NEXT();
    L_RorLdi: {
      const std::uint8_t d = ram[op->a];
      const std::uint8_t res =
          static_cast<std::uint8_t>((d >> 1) | ((sreg & 1) ? 0x80 : 0));
      ram[op->a] = res;
      sreg = sreg_asr_ror(sreg, d, res);  // LDI writes no flags
      ram[op->b] = static_cast<std::uint8_t>(op->k);
    }
      MAVR_TIER_NEXT();
    L_AddAdc: {
      const std::uint8_t d = ram[op->a], r = ram[op->b];
      const unsigned sum = unsigned{d} + r;
      ram[op->a] = static_cast<std::uint8_t>(sum);
      // The ADD's flags are dead except its carry-out (the ADC's SREG
      // write covers the whole arithmetic set and preserves the rest).
      const std::uint8_t d2 = ram[op->k & 0xFF], r2 = ram[op->k >> 8];
      const std::uint8_t res2 =
          static_cast<std::uint8_t>(d2 + r2 + (sum >> 8));
      ram[op->k & 0xFF] = res2;
      sreg = sreg_add(sreg, d2, r2, res2);
    }
      MAVR_TIER_NEXT();
    L_AddAdd: {
      const std::uint8_t d = ram[op->a], r = ram[op->b];
      ram[op->a] = static_cast<std::uint8_t>(d + r);
      const std::uint8_t d2 = ram[op->k & 0xFF], r2 = ram[op->k >> 8];
      const std::uint8_t res2 = static_cast<std::uint8_t>(d2 + r2);
      ram[op->k & 0xFF] = res2;
      sreg = sreg_add(sreg, d2, r2, res2);
    }
      MAVR_TIER_NEXT();
    L_SubSbc: {
      const std::uint8_t d = ram[op->a], r = ram[op->b];
      const std::uint8_t res = static_cast<std::uint8_t>(d - r);
      ram[op->a] = res;
      // SBC gates its Z on the previous op's Z and consumes its borrow;
      // everything else of the SUB's flags is overwritten.
      const std::uint8_t z1 =
          res == 0 ? fb(kZ) : std::uint8_t{0};
      const std::uint8_t d2 = ram[op->k & 0xFF], r2 = ram[op->k >> 8];
      const std::uint8_t res2 =
          static_cast<std::uint8_t>(d2 - r2 - (d < r ? 1 : 0));
      ram[op->k & 0xFF] = res2;
      sreg = sreg_sub(
          static_cast<std::uint8_t>((sreg & ~fb(kZ)) | z1), d2, r2, res2,
          /*keep_z=*/true);
    }
      MAVR_TIER_NEXT();
    L_SubiSbci: {
      const std::uint8_t d = ram[op->a];
      const std::uint8_t r = static_cast<std::uint8_t>(op->k);
      const std::uint8_t res = static_cast<std::uint8_t>(d - r);
      ram[op->a] = res;
      const std::uint8_t z1 =
          res == 0 ? fb(kZ) : std::uint8_t{0};
      const std::uint8_t d2 = ram[op->b];
      const std::uint8_t r2 = static_cast<std::uint8_t>(op->target);
      const std::uint8_t res2 =
          static_cast<std::uint8_t>(d2 - r2 - (d < r ? 1 : 0));
      ram[op->b] = res2;
      sreg = sreg_sub(
          static_cast<std::uint8_t>((sreg & ~fb(kZ)) | z1), d2, r2, res2,
          /*keep_z=*/true);
    }
      MAVR_TIER_NEXT();
    L_AsrRor: {
      const std::uint8_t d = ram[op->a];
      const std::uint8_t res =
          static_cast<std::uint8_t>((d >> 1) | (d & 0x80));
      ram[op->a] = res;
      // The ASR's flags are dead except its carry-out into the ROR.
      const std::uint8_t d2 = ram[op->b];
      const std::uint8_t res2 =
          static_cast<std::uint8_t>((d2 >> 1) | ((d & 1) ? 0x80 : 0));
      ram[op->b] = res2;
      sreg = sreg_asr_ror(sreg, d2, res2);
    }
      MAVR_TIER_NEXT();
    L_RorAsr: {
      const std::uint8_t d = ram[op->a];
      const std::uint8_t res =
          static_cast<std::uint8_t>((d >> 1) | ((sreg & 1) ? 0x80 : 0));
      ram[op->a] = res;
      // The ROR's flags are all overwritten by the ASR (which takes no
      // carry-in), so only its stored byte survives.
      const std::uint8_t d2 = ram[op->b];
      const std::uint8_t res2 =
          static_cast<std::uint8_t>((d2 >> 1) | (d2 & 0x80));
      ram[op->b] = res2;
      sreg = sreg_asr_ror(sreg, d2, res2);
    }
      MAVR_TIER_NEXT();
    L_LdsSts:
      ram[op->a] = ram[op->k];
      ram[op->target] = ram[op->b];
      MAVR_TIER_NEXT();
    L_StsLds:
      ram[op->k] = ram[op->a];
      ram[op->b] = ram[op->target];
      MAVR_TIER_NEXT();

    // --- conditional mid-block exits ------------------------------------
    L_CondBrbs:
      if ((sreg >> op->b) & 1) {
        next_pc = op->target;
        term_cyc = op->cyc;
        goto block_done;
      }
      MAVR_TIER_NEXT();
    L_CondBrbc:
      if (!((sreg >> op->b) & 1)) {
        next_pc = op->target;
        term_cyc = op->cyc;
        goto block_done;
      }
      MAVR_TIER_NEXT();
    L_CondCpse:
      if (ram[op->a] == ram[op->b]) {
        next_pc = op->target;
        term_cyc = op->cyc;
        goto block_done;
      }
      MAVR_TIER_NEXT();
    L_CondSbrc:
      if (!((ram[op->a] >> op->b) & 1)) {
        next_pc = op->target;
        term_cyc = op->cyc;
        goto block_done;
      }
      MAVR_TIER_NEXT();
    L_CondSbrs:
      if ((ram[op->a] >> op->b) & 1) {
        next_pc = op->target;
        term_cyc = op->cyc;
        goto block_done;
      }
      MAVR_TIER_NEXT();
    L_CondSbic:
      // A dispatched read ends the block at this boundary whichever way
      // the test goes — the handler may have scheduled work.
      if (disp[op->k] & IoBus::kHandlesRead) [[unlikely]] {
        std::uint8_t v;
        MAVR_TIER_IO_CALL_COND(v = data_.load(op->k),
                               !((v >> op->b) & 1));
        goto block_done;
      }
      if (!((ram[op->k] >> op->b) & 1)) {
        next_pc = op->target;
        term_cyc = op->cyc;
        goto block_done;
      }
      MAVR_TIER_NEXT();
    L_CondSbis:
      if (disp[op->k] & IoBus::kHandlesRead) [[unlikely]] {
        std::uint8_t v;
        MAVR_TIER_IO_CALL_COND(v = data_.load(op->k),
                               (v >> op->b) & 1);
        goto block_done;
      }
      if ((ram[op->k] >> op->b) & 1) {
        next_pc = op->target;
        term_cyc = op->cyc;
        goto block_done;
      }
      MAVR_TIER_NEXT();
    L_CondRet: {
      // Same pop sequence as L_TermRet, then a compare against the
      // translate-time prediction: a match continues in-block, a
      // mismatch (callee unbalanced the stack) exits with the popped
      // destination. Nothing is speculative — the pop is architectural
      // either way.
      const std::uint32_t sp_now =
          static_cast<std::uint16_t>(ram[kAddrSpl] | (ram[kAddrSph] << 8));
      if (sp_now + 1 < kExtIoEnd || sp_now + push_n >= data_size) {
        goto side_exit;
      }
      std::uint32_t raw = 0;
      for (unsigned i = 1; i <= push_n; ++i) {
        raw = (raw << 8) | ram[sp_now + i];
      }
      const std::uint16_t p = static_cast<std::uint16_t>(sp_now + push_n);
      ram[kAddrSpl] = static_cast<std::uint8_t>(p & 0xFF);
      ram[kAddrSph] = static_cast<std::uint8_t>(p >> 8);
      last_ret_raw_words_ = raw;
      last_ret_wrapped_ = (raw & ~mask) != 0;
      const std::uint32_t dest = raw & mask;
      if (dest == op->target) [[likely]] MAVR_TIER_NEXT();
      next_pc = dest;
      term_cyc = op->cyc;
      goto block_done;
    }

    // --- terminators ---------------------------------------------------
    L_TermIjmp:
      next_pc = static_cast<std::uint16_t>(ram[30] | (ram[31] << 8)) & mask;
      term_cyc = op->cyc;
      goto block_done;
    L_TermEijmp:
      next_pc = ((static_cast<std::uint32_t>(ram[kAddrEind]) << 16) |
                 static_cast<std::uint16_t>(ram[30] | (ram[31] << 8))) &
                mask;
      term_cyc = op->cyc;
      goto block_done;
    L_TermIcall: {
      const std::uint32_t sp_now =
          static_cast<std::uint16_t>(ram[kAddrSpl] | (ram[kAddrSph] << 8));
      if (sp_now < kExtIoEnd + (push_n - 1) || sp_now >= data_size) {
        goto side_exit;
      }
      const std::uint32_t ret = op->target2;
      ram[sp_now] = static_cast<std::uint8_t>(ret & 0xFF);
      ram[sp_now - 1] = static_cast<std::uint8_t>((ret >> 8) & 0xFF);
      if (push_n == 3) {
        ram[sp_now - 2] = static_cast<std::uint8_t>((ret >> 16) & 0xFF);
      }
      const std::uint16_t p = static_cast<std::uint16_t>(sp_now - push_n);
      ram[kAddrSpl] = static_cast<std::uint8_t>(p & 0xFF);
      ram[kAddrSph] = static_cast<std::uint8_t>(p >> 8);
      next_pc = static_cast<std::uint16_t>(ram[30] | (ram[31] << 8)) & mask;
      term_cyc = op->cyc;
      goto block_done;
    }
    L_TermEicall: {
      const std::uint32_t sp_now =
          static_cast<std::uint16_t>(ram[kAddrSpl] | (ram[kAddrSph] << 8));
      if (sp_now < kExtIoEnd + (push_n - 1) || sp_now >= data_size) {
        goto side_exit;
      }
      const std::uint32_t ret = op->target2;
      ram[sp_now] = static_cast<std::uint8_t>(ret & 0xFF);
      ram[sp_now - 1] = static_cast<std::uint8_t>((ret >> 8) & 0xFF);
      if (push_n == 3) {
        ram[sp_now - 2] = static_cast<std::uint8_t>((ret >> 16) & 0xFF);
      }
      const std::uint16_t p = static_cast<std::uint16_t>(sp_now - push_n);
      ram[kAddrSpl] = static_cast<std::uint8_t>(p & 0xFF);
      ram[kAddrSph] = static_cast<std::uint8_t>(p >> 8);
      next_pc = ((static_cast<std::uint32_t>(ram[kAddrEind]) << 16) |
                 static_cast<std::uint16_t>(ram[30] | (ram[31] << 8))) &
                mask;
      term_cyc = op->cyc;
      goto block_done;
    }
    L_TermRet:
    L_TermReti: {
      const std::uint32_t sp_now =
          static_cast<std::uint16_t>(ram[kAddrSpl] | (ram[kAddrSph] << 8));
      // pop_pc's batched fast path bounds.
      if (sp_now + 1 < kExtIoEnd || sp_now + push_n >= data_size) {
        goto side_exit;
      }
      std::uint32_t raw = 0;
      for (unsigned i = 1; i <= push_n; ++i) {
        raw = (raw << 8) | ram[sp_now + i];
      }
      const std::uint16_t p = static_cast<std::uint16_t>(sp_now + push_n);
      ram[kAddrSpl] = static_cast<std::uint8_t>(p & 0xFF);
      ram[kAddrSph] = static_cast<std::uint8_t>(p >> 8);
      last_ret_raw_words_ = raw;
      last_ret_wrapped_ = (raw & ~mask) != 0;
      if (op->kind == TierOpKind::kTermReti) sreg |= fb(kI);
      next_pc = raw & mask;
      term_cyc = op->cyc;
      goto block_done;
    }
    L_TermBsetI:
      sreg |= fb(kI);
      next_pc = op->target2;
      term_cyc = op->cyc;
      goto block_done;
    L_TermOutSreg:
      if (disp[op->k] & IoBus::kHandlesWrite) goto side_exit;
      sreg = ram[op->a];
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
      // Self-loop fast path: a hot loop whose backward branch targets its
      // own head (dec/brne spins, polling loops) re-enters the same block
      // without going back through the lookup — only the guards that can
      // change between iterations are rechecked.
      if (pc == blk_head && state_ == CpuState::Running && !want_resync) {
        const std::uint64_t io_deadline = io_.next_deadline();
        const std::uint64_t stop =
            io_deadline < deadline ? io_deadline : deadline;
        if (cycles + blk_worst < stop &&
            !((ram[kAddrSreg] & fb(kI)) != 0 && io_.irq_hint() &&
              !irq_lines_.empty())) {
          op = base;
          sreg = ram[kAddrSreg];
          ++stat_self;
          goto exec_entry;
        }
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

#else  // !(__GNUC__ || __clang__)

// Without computed goto the tier has no fast dispatch to offer; fall
// through to the interpreter, which is bit-identical by definition.
void Cpu::run_tier(std::uint64_t deadline) {
  step_impl<false>(deadline, /*single=*/false);
}

#endif

}  // namespace mavr::avr
