// Differential test of the three AVR execution paths: the superblock tier,
// the untraced interpreter and the traced interpreter (with a Tracer whose
// hooks do nothing) must agree on every observable after every run()
// slice, on seeded random programs that aim at the corners code reuse
// lives in — pointers and SP in the register file, the I/O region and
// across the data-space end, device-claimed I/O registers, LPM/ELPM over
// a RAMPZ carry, unbalanced returns, and a timer interrupt that keeps
// landing inside blocks.
//
// The generator emits well-formed code (every instruction comes from
// toolchain/encode) in a fixed shape: a vector table, a timer ISR, four
// subroutines and a main loop of random chunks. Wild control flow still
// happens — SP pivots, stores over return addresses — and is compared
// like everything else.
#include <gtest/gtest.h>

#include <array>
#include <bitset>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "avr/cpu.hpp"
#include "avr/decode.hpp"
#include "avr/timer.hpp"
#include "support/rng.hpp"
#include "toolchain/encode.hpp"

namespace mavr {
namespace {

using avr::Op;
using namespace mavr::toolchain;

constexpr std::size_t kOpCount = static_cast<std::size_t>(Op::Spm) + 1;

// Device-claimed I/O registers (data-space addresses). The low three sit
// in SBI/SBIC range; 0x4C is IN/OUT-only; 0xC6 is LDS/STS-only.
constexpr std::uint16_t kDevRw = 0x2E;     // read + write handler
constexpr std::uint16_t kDevRo = 0x31;     // read handler, writes hit RAM
constexpr std::uint16_t kDevWo = 0x33;     // write handler, reads hit RAM
constexpr std::uint16_t kDevHigh = 0x4C;   // read + write, IN/OUT only
constexpr std::uint16_t kDevExt = 0xC6;    // read + write, LDS/STS only

/// A deterministic device: reads return a value derived from a read
/// counter, and some written values raise the interrupt hint, so the tier
/// sees both benign and non-benign handler calls.
struct Device {
  avr::IoBus* bus = nullptr;
  std::uint8_t value = 0;
  std::uint32_t reads = 0;
  std::uint32_t writes = 0;

  static std::uint8_t read(void* ctx) {
    auto* d = static_cast<Device*>(ctx);
    ++d->reads;
    return static_cast<std::uint8_t>(d->value ^ (d->reads * 37u));
  }
  static void write(void* ctx, std::uint8_t v) {
    auto* d = static_cast<Device*>(ctx);
    ++d->writes;
    d->value = v;
    if ((v & 0x0F) == 0x0F) d->bus->raise_irq();
  }
};

enum class Mode { kTier, kInterp, kTraced };

/// One core with the test's devices and an armed timer on vector slot 1.
struct Rig {
  Rig(const avr::McuSpec& spec, const support::Bytes& image, Mode mode,
      std::uint64_t timer_period)
      : cpu(spec), timer(cpu.io(), timer_period) {
    dev.bus = &cpu.io();
    avr::IoBus& io = cpu.io();
    for (const std::uint16_t a : {kDevRw, kDevHigh, kDevExt}) {
      io.on_read(a, &Device::read, &dev);
      io.on_write(a, &Device::write, &dev);
    }
    io.on_read(kDevRo, &Device::read, &dev);
    io.on_write(kDevWo, &Device::write, &dev);
    cpu.set_irq_line(
        1, [](void* t) { return static_cast<avr::Timer*>(t)->take_irq(); },
        &timer);
    cpu.flash().program(image);
    cpu.reset();
    cpu.set_exec_tier(mode == Mode::kTier);
    if (mode == Mode::kTraced) cpu.set_tracer(&tracer);
  }

  avr::Cpu cpu;
  avr::Timer timer;
  Device dev;
  avr::Tracer tracer;  // every hook is a no-op
};

/// Random program builder over toolchain/encode. Records every Op it
/// emits so the test can require full decoder coverage.
class Gen {
 public:
  Gen(support::Rng& rng, const avr::McuSpec& spec, std::bitset<kOpCount>& seen)
      : rng_(rng), spec_(spec), seen_(seen) {}

  support::Bytes build(bool allow_halt) {
    words_.assign(4, 0);  // vector table, patched below
    const std::uint32_t isr = here();
    emit_isr();
    for (int s = 0; s < kSubs; ++s) {
      subs_[s] = here();
      emit_sub(s);
    }
    const std::uint32_t main = here();
    // Main runs with an empty stack at every chunk boundary, so the SP
    // chunk can restore a fixed value.
    put(Op::Bset, enc_bset_bclr(Op::Bset, avr::kI));  // SEI: arm the timer
    const std::uint32_t loop = here();
    const int chunks = static_cast<int>(rng_.range(60, 160));
    const int halt_at =
        allow_halt ? static_cast<int>(rng_.below(static_cast<unsigned>(chunks)))
                   : -1;
    for (int c = 0; c < chunks; ++c) {
      if (c == halt_at) {
        if (rng_.chance(0.5)) {
          put(Op::Break, enc_no_operand(Op::Break));
        } else {
          put(Op::Invalid, 0xFFFF);  // erased flash: an invalid opcode
        }
      }
      chunk(/*in_main=*/true);
    }
    put2(Op::Jmp, enc_abs_jump(Op::Jmp, loop));
    patch2(0, enc_abs_jump(Op::Jmp, main));
    patch2(2, enc_abs_jump(Op::Jmp, isr));
    seen_.set(static_cast<std::size_t>(Op::Jmp));

    support::Bytes image;
    for (const std::uint16_t w : words_) {
      image.push_back(static_cast<std::uint8_t>(w & 0xFF));
      image.push_back(static_cast<std::uint8_t>(w >> 8));
    }
    return image;
  }

 private:
  static constexpr int kSubs = 4;

  std::uint32_t here() const {
    return static_cast<std::uint32_t>(words_.size());
  }
  void put(Op op, std::uint16_t w) {
    seen_.set(static_cast<std::size_t>(op));
    words_.push_back(w);
  }
  void put2(Op op, WordPair p) {
    seen_.set(static_cast<std::size_t>(op));
    words_.push_back(p.first);
    words_.push_back(p.second);
  }
  void patch(std::uint32_t at, std::uint16_t w) { words_[at] = w; }
  void patch2(std::uint32_t at, WordPair p) {
    words_[at] = p.first;
    words_[at + 1] = p.second;
  }

  std::uint8_t pick(std::initializer_list<std::uint8_t> set) {
    return set.begin()[rng_.below(set.size())];
  }
  /// Any register, biased towards a small set so operands overlap.
  std::uint8_t reg() {
    if (rng_.chance(0.5)) return pick({16, 17, 18, 19, 26, 30});
    return static_cast<std::uint8_t>(rng_.below(32));
  }
  /// r16..r31 (immediate forms), same bias.
  std::uint8_t hreg() {
    if (rng_.chance(0.5)) return pick({16, 17, 18, 19});
    return static_cast<std::uint8_t>(rng_.range(16, 31));
  }
  std::uint8_t byte() { return static_cast<std::uint8_t>(rng_.next()); }
  std::uint8_t any_bit() { return static_cast<std::uint8_t>(rng_.below(8)); }
  /// Bit 0, 1 or 7: the carry, zero and sign-like positions.
  std::uint8_t edge_bit() { return pick({0, 1, 7}); }

  /// A data-space address in one of the regions the tier treats
  /// differently: register file, I/O region (device-claimed or not),
  /// plain RAM, and around the data-space end (wrapping past it). Outside
  /// main (`in_main` false) the aim spares SP and the top of the stack,
  /// where a live return address sits.
  std::uint16_t aim(bool in_main) {
    const std::uint32_t end = spec_.data_space_bytes();
    switch (rng_.below(in_main ? 6 : 4)) {
      case 0: return static_cast<std::uint16_t>(rng_.below(32));
      case 1: {
        std::uint16_t a;
        do {
          a = static_cast<std::uint16_t>(rng_.range(avr::kIoBase,
                                                    avr::kExtIoEnd - 1));
        } while (!in_main && (a == avr::kAddrSpl || a == avr::kAddrSph));
        return a;
      }
      case 2: return pick_dev();
      case 3:
        return static_cast<std::uint16_t>(
            rng_.range(avr::kExtIoEnd, end - 0x100));
      case 4:
        return static_cast<std::uint16_t>(end - 8 + rng_.below(16));
      default: return static_cast<std::uint16_t>(rng_.next());
    }
  }
  std::uint16_t pick_dev() {
    const std::uint16_t devs[] = {kDevRw, kDevRo, kDevWo, kDevHigh, kDevExt};
    return devs[rng_.below(5)];
  }
  /// An address a fused LDS/STS pair can use: plain RAM, the register
  /// file, or an unclaimed I/O-region byte (never SP or SREG).
  std::uint16_t plain_aim() {
    switch (rng_.below(3)) {
      case 0: return static_cast<std::uint16_t>(rng_.below(32));
      case 1: return static_cast<std::uint16_t>(rng_.range(0x60, 0xBF));
      default:
        return static_cast<std::uint16_t>(
            rng_.range(avr::kExtIoEnd, avr::kExtIoEnd + 0x3FF));
    }
  }
  /// I/O-space (IN/OUT) address, biased to devices and SREG.
  std::uint8_t io_addr(bool for_out) {
    for (;;) {
      std::uint8_t a;
      switch (rng_.below(4)) {
        case 0: a = pick({kDevRw - 0x20, kDevRo - 0x20, kDevWo - 0x20,
                          kDevHigh - 0x20});
          break;
        case 1: a = pick({avr::kIoSreg, avr::kIoRampz, avr::kIoEind,
                          avr::kIoSpl});
          break;
        default: a = static_cast<std::uint8_t>(rng_.below(64));
      }
      if (for_out && (a == avr::kIoSpl || a == avr::kIoSph)) continue;
      return a;
    }
  }
  /// SBI/CBI/SBIC/SBIS address (low 32 I/O registers).
  std::uint8_t low_io() {
    if (rng_.chance(0.5)) {
      return pick({kDevRw - 0x20, kDevRo - 0x20, kDevWo - 0x20});
    }
    return static_cast<std::uint8_t>(rng_.below(32));
  }

  /// One random single-word instruction with no control flow and no
  /// pointer or stack effect (branch bodies, fillers, ISR bodies).
  void simple(std::uint8_t avoid = 0xFF) {
    std::uint8_t d = reg();
    while (d == avoid) d = reg();
    std::uint8_t h = hreg();
    while (h == avoid) h = hreg();
    switch (rng_.below(5)) {
      case 0: {
        const Op ops[] = {Op::Add, Op::Adc, Op::Sub, Op::Sbc, Op::And,
                          Op::Or,  Op::Eor, Op::Mov, Op::Cp,  Op::Cpc,
                          Op::Mul};
        const Op op = ops[rng_.below(11)];
        put(op, enc_two_reg(op, d, reg()));
        break;
      }
      case 1: {
        const Op ops[] = {Op::Ldi, Op::Subi, Op::Sbci,
                          Op::Andi, Op::Ori, Op::Cpi};
        const Op op = ops[rng_.below(6)];
        put(op, enc_imm(op, h, byte()));
        break;
      }
      case 2: {
        const Op ops[] = {Op::Com, Op::Neg, Op::Swap, Op::Inc,
                          Op::Asr, Op::Lsr, Op::Ror,  Op::Dec};
        const Op op = ops[rng_.below(8)];
        put(op, enc_one_reg(op, d));
        break;
      }
      case 3:
        if (rng_.chance(0.5)) {
          put(Op::Bst, enc_bst_bld(Op::Bst, reg(), pick({0, 3, 7})));
        } else {
          put(Op::Bld, enc_bst_bld(Op::Bld, d, pick({0, 3, 7})));
        }
        break;
      default: {
        // Flag bits other than I: SEI/CLI are chunk-level decisions.
        const std::uint8_t bit = static_cast<std::uint8_t>(rng_.below(7));
        const Op op = rng_.chance(0.5) ? Op::Bset : Op::Bclr;
        put(op, enc_bset_bclr(op, bit));
      }
    }
  }

  void emit_isr() {
    // Saves r16 and SREG so main's flags survive, then clobbers a few
    // registers, then returns with RETI.
    put(Op::Push, enc_push(16));
    put(Op::In, enc_in(16, avr::kIoSreg));
    put(Op::Push, enc_push(16));
    const int n = static_cast<int>(rng_.range(1, 4));
    for (int i = 0; i < n; ++i) {
      // Never r0..r12 either (an SP pivoted into the register file keeps
      // return addresses there), r17/r18 (the late-returning subroutine
      // holds a popped return address in r16..r18) or Z (an ICALL/IJMP
      // target being loaded).
      put(Op::Inc, enc_one_reg(Op::Inc, pick({13, 15, 19, 24, 26, 28})));
    }
    if (rng_.chance(0.5)) {
      put2(Op::Sts, enc_sts(plain_aim(), 16));
    }
    put(Op::Pop, enc_pop(16));
    put(Op::Out, enc_out(avr::kIoSreg, 16));
    put(Op::Pop, enc_pop(16));
    put(Op::Reti, enc_no_operand(Op::Reti));
  }

  void emit_sub(int s) {
    if (s == 3) {
      // Returns one word past its call site: pops the return address,
      // adds one (SUBI/SBCI carry chain), pushes it back — an unbalanced
      // RET as far as a predicted in-block return is concerned. Callers
      // put a one-word filler after every call.
      const unsigned n = spec_.pc_push_bytes;
      if (n == 3) put(Op::Pop, enc_pop(18));
      put(Op::Pop, enc_pop(17));
      put(Op::Pop, enc_pop(16));
      put(Op::Subi, enc_imm(Op::Subi, 16, 0xFF));
      put(Op::Sbci, enc_imm(Op::Sbci, 17, 0xFF));
      if (n == 3) put(Op::Sbci, enc_imm(Op::Sbci, 18, 0xFF));
      put(Op::Push, enc_push(16));
      put(Op::Push, enc_push(17));
      if (n == 3) put(Op::Push, enc_push(18));
      put(Op::Ret, enc_no_operand(Op::Ret));
      return;
    }
    const int n = static_cast<int>(rng_.range(2, 8));
    for (int i = 0; i < n; ++i) chunk(/*in_main=*/false);
    if (s == 1) {
      const std::uint8_t r = reg();
      put(Op::Push, enc_push(r));
      simple();
      put(Op::Pop, enc_pop(reg()));
    }
    put(Op::Ret, enc_no_operand(Op::Ret));
  }

  void call_sub() {
    const std::uint32_t target = subs_[rng_.below(kSubs)];
    switch (rng_.below(4)) {
      case 0: {
        const std::int32_t off = static_cast<std::int32_t>(target) -
                                 static_cast<std::int32_t>(here()) - 1;
        put(Op::Rcall, enc_rel_jump(Op::Rcall, off));
        break;
      }
      case 1: put2(Op::Call, enc_abs_jump(Op::Call, target)); break;
      case 2:
      case 3: {
        put(Op::Ldi, enc_imm(Op::Ldi, 30, static_cast<std::uint8_t>(target)));
        put(Op::Ldi,
            enc_imm(Op::Ldi, 31, static_cast<std::uint8_t>(target >> 8)));
        if (rng_.chance(0.5)) {
          put(Op::Icall, enc_no_operand(Op::Icall));
        } else {
          put(Op::Ldi, enc_imm(Op::Ldi, 19, 0));
          put(Op::Out, enc_out(avr::kIoEind, 19));
          put(Op::Eicall, enc_no_operand(Op::Eicall));
        }
      }
    }
    simple();  // skipped when the callee returns one word late
  }

  /// Pointer chunk: aim X, Y or Z, then a few loads/stores through it.
  void pointer_chunk(bool in_main) {
    const int p = static_cast<int>(rng_.below(3));
    const std::uint8_t lo = static_cast<std::uint8_t>(26 + 2 * p);
    const std::uint16_t a = aim(in_main);
    put(Op::Ldi, enc_imm(Op::Ldi, lo, static_cast<std::uint8_t>(a)));
    put(Op::Ldi, enc_imm(Op::Ldi, static_cast<std::uint8_t>(lo + 1),
                         static_cast<std::uint8_t>(a >> 8)));
    static constexpr Op kX[] = {Op::LdX, Op::LdXInc, Op::LdXDec,
                                Op::StX, Op::StXInc, Op::StXDec};
    static constexpr Op kY[] = {Op::LdYInc, Op::LdYDec, Op::LddY,
                                Op::StYInc, Op::StYDec, Op::StdY};
    static constexpr Op kZ[] = {Op::LdZInc, Op::LdZDec, Op::LddZ,
                                Op::StZInc, Op::StZDec, Op::StdZ};
    const Op* ops = p == 0 ? kX : p == 1 ? kY : kZ;
    const int n = static_cast<int>(rng_.range(1, 3));
    for (int i = 0; i < n; ++i) {
      const Op op = ops[rng_.below(6)];
      // The data register may be the pointer itself: the order of the
      // access and the pointer write-back is then observable.
      const std::uint8_t r =
          rng_.chance(0.2) ? static_cast<std::uint8_t>(lo + rng_.below(2))
                           : reg();
      const std::uint8_t q = static_cast<std::uint8_t>(
          rng_.chance(0.3) ? 63 - rng_.below(4) : rng_.below(64));
      switch (op) {
        case Op::LddY: put(op, enc_ldd(r, true, q)); break;
        case Op::LddZ: put(op, enc_ldd(r, false, q)); break;
        case Op::StdY: put(op, enc_std(true, q, r)); break;
        case Op::StdZ: put(op, enc_std(false, q, r)); break;
        default: put(op, enc_ld_st(op, r));
      }
    }
  }

  /// SP chunk (main only): pivot SP into a region, run stack traffic and
  /// calls there, then restore SP to RAMEND.
  void sp_chunk() {
    const std::uint32_t end = spec_.data_space_bytes();
    std::uint16_t sp;
    const std::uint64_t region = rng_.below(5);
    switch (region) {
      case 0: sp = static_cast<std::uint16_t>(rng_.range(4, 12)); break;
      case 1:
        sp = rng_.chance(0.2)
                 ? static_cast<std::uint16_t>(rng_.range(avr::kAddrSpl - 2,
                                                         avr::kAddrSreg + 3))
                 : static_cast<std::uint16_t>(rng_.range(avr::kIoBase,
                                                         avr::kExtIoEnd + 2));
        break;
      case 2:
        sp = static_cast<std::uint16_t>(
            rng_.range(avr::kExtIoEnd + 3, end - 0x100));
        break;
      case 3: sp = static_cast<std::uint16_t>(end - 3 + rng_.below(6)); break;
      default:
        sp = rng_.below(3) == 0 ? 0xFFFF
                                : static_cast<std::uint16_t>(rng_.below(3));
    }
    put(Op::Ldi, enc_imm(Op::Ldi, 22, static_cast<std::uint8_t>(sp)));
    put(Op::Ldi, enc_imm(Op::Ldi, 23, static_cast<std::uint8_t>(sp >> 8)));
    put(Op::Out, enc_out(avr::kIoSpl, 22));
    put(Op::Out, enc_out(avr::kIoSph, 23));
    const int n = static_cast<int>(rng_.range(1, 4));
    for (int i = 0; i < n; ++i) {
      switch (rng_.below(4)) {
        case 0: put(Op::Push, enc_push(reg())); break;
        case 1: put(Op::Pop, enc_pop(reg())); break;
        case 2:
          // A return address in the register file would not survive the
          // random register traffic of a callee.
          if (region != 0) {
            call_sub();
            break;
          }
          [[fallthrough]];
        default: simple();
      }
    }
    const std::uint16_t top = static_cast<std::uint16_t>(spec_.ramend());
    put(Op::Ldi, enc_imm(Op::Ldi, 22, static_cast<std::uint8_t>(top)));
    put(Op::Ldi, enc_imm(Op::Ldi, 23, static_cast<std::uint8_t>(top >> 8)));
    put(Op::Out, enc_out(avr::kIoSpl, 22));
    put(Op::Out, enc_out(avr::kIoSph, 23));
  }

  void lpm_chunk() {
    std::uint16_t z;
    std::uint8_t rampz;
    if (rng_.chance(0.4)) {
      // Z at the top of its 64 KiB: ELPM Z+ carries into RAMPZ.
      z = static_cast<std::uint16_t>(0xFFFF - rng_.below(2));
      rampz = pick({0, 1, 2, 0xFF});
    } else {
      z = static_cast<std::uint16_t>(rng_.chance(0.5) ? rng_.below(2 * here())
                                                      : rng_.next());
      rampz = pick({0, 1, 3});
    }
    put(Op::Ldi, enc_imm(Op::Ldi, 30, static_cast<std::uint8_t>(z)));
    put(Op::Ldi, enc_imm(Op::Ldi, 31, static_cast<std::uint8_t>(z >> 8)));
    put(Op::Ldi, enc_imm(Op::Ldi, 19, rampz));
    put(Op::Out, enc_out(avr::kIoRampz, 19));
    const int n = static_cast<int>(rng_.range(1, 3));
    for (int i = 0; i < n; ++i) {
      static constexpr Op kOps[] = {Op::LpmR0,  Op::Lpm,  Op::LpmInc,
                                    Op::ElpmR0, Op::Elpm, Op::ElpmInc};
      const Op op = kOps[rng_.below(6)];
      const std::uint8_t r =
          rng_.chance(0.2) ? pick({30, 31}) : reg();  // Z itself, sometimes
      put(op, enc_lpm(op, r));
    }
  }

  /// One of the tier's fused pairs, operands biased to overlap.
  void pair_chunk() {
    const auto lds = [&] { put2(Op::Lds, enc_lds(reg(), plain_aim())); };
    const auto sts = [&] { put2(Op::Sts, enc_sts(plain_aim(), reg())); };
    const auto two = [&](Op op) { put(op, enc_two_reg(op, reg(), reg())); };
    const auto one = [&](Op op) { put(op, enc_one_reg(op, reg())); };
    const auto imm = [&](Op op) { put(op, enc_imm(op, hreg(), byte())); };
    switch (rng_.below(17)) {
      case 0: lds(); lds(); break;
      case 1: sts(); sts(); break;
      case 2: imm(Op::Ldi); imm(Op::Ldi); break;
      case 3: imm(Op::Ldi); two(Op::Add); break;
      case 4: lds(); two(Op::Add); break;
      case 5: lds(); two(Op::Sub); break;
      case 6: two(Op::Add); sts(); break;
      case 7: one(Op::Ror); imm(Op::Ldi); break;
      case 8: two(Op::Add); two(Op::Adc); break;
      case 9: two(Op::Add); two(Op::Add); break;
      case 10: two(Op::Sub); two(Op::Sbc); break;
      case 11: imm(Op::Subi); imm(Op::Sbci); break;
      case 12: one(Op::Asr); one(Op::Ror); break;
      case 13: one(Op::Ror); one(Op::Asr); break;
      case 14: lds(); sts(); break;
      case 15: sts(); lds(); break;
      default:
        // IN/OUT of an unclaimed port translate to the same plain moves.
        put(Op::In, enc_in(reg(), static_cast<std::uint8_t>(
                                      0x20 + rng_.below(8))));
        lds();
    }
  }

  void skip_chunk() {
    switch (rng_.below(5)) {
      case 0: put(Op::Cpse, enc_two_reg(Op::Cpse, reg(), reg())); break;
      case 1: put(Op::Sbrc, enc_skip_reg(Op::Sbrc, reg(), edge_bit())); break;
      case 2: put(Op::Sbrs, enc_skip_reg(Op::Sbrs, reg(), edge_bit())); break;
      case 3: put(Op::Sbic, enc_skip_io(Op::Sbic, low_io(), edge_bit())); break;
      default: put(Op::Sbis, enc_skip_io(Op::Sbis, low_io(), edge_bit()));
    }
    // The skipped instruction is one or two words.
    switch (rng_.below(3)) {
      case 0: simple(); break;
      case 1: put2(Op::Lds, enc_lds(reg(), plain_aim())); break;
      default:
        put2(Op::Jmp, enc_abs_jump(Op::Jmp, here() + 2));  // jump to next
    }
  }

  void branch_chunk() {
    const std::uint32_t at = here();
    put(Op::Brbs, 0);  // placeholder
    const int n = static_cast<int>(rng_.range(1, 3));
    for (int i = 0; i < n; ++i) simple();
    const Op op = rng_.chance(0.5) ? Op::Brbs : Op::Brbc;
    seen_.set(static_cast<std::size_t>(op));
    patch(at, enc_branch(op, static_cast<std::uint8_t>(rng_.below(8)),
                         static_cast<std::int32_t>(here() - at - 1)));
  }

  void loop_chunk() {
    // dec/brne counted loop on r20 or r21 (the ISR never touches them).
    const std::uint8_t rc = pick({20, 21});
    put(Op::Ldi,
        enc_imm(Op::Ldi, rc, static_cast<std::uint8_t>(rng_.range(1, 9))));
    const std::uint32_t head = here();
    const int n = static_cast<int>(rng_.range(0, 3));
    for (int i = 0; i < n; ++i) simple(rc);
    put(Op::Dec, enc_one_reg(Op::Dec, rc));
    put(Op::Brbc, enc_branch(Op::Brbc, avr::kZ,
                             static_cast<std::int32_t>(head) -
                                 static_cast<std::int32_t>(here()) - 1));
  }

  void jump_chunk() {
    switch (rng_.below(3)) {
      case 0: {
        const std::uint32_t at = here();
        put(Op::Rjmp, 0);
        simple();  // jumped over
        patch(at, enc_rel_jump(Op::Rjmp,
                               static_cast<std::int32_t>(here() - at - 1)));
        break;
      }
      case 1: {
        const std::uint32_t at = here();
        put2(Op::Jmp, enc_abs_jump(Op::Jmp, 0));
        simple();
        patch2(at, enc_abs_jump(Op::Jmp, here()));
        break;
      }
      default: {
        // IJMP/EIJMP over one word, through Z (+EIND).
        const std::uint32_t at = here();
        put(Op::Ldi, 0);
        put(Op::Ldi, 0);
        if (rng_.chance(0.5)) {
          put(Op::Ijmp, enc_no_operand(Op::Ijmp));
        } else {
          put(Op::Ldi, enc_imm(Op::Ldi, 19, 0));
          put(Op::Out, enc_out(avr::kIoEind, 19));
          put(Op::Eijmp, enc_no_operand(Op::Eijmp));
        }
        simple();
        const std::uint32_t to = here();
        patch(at, enc_imm(Op::Ldi, 30, static_cast<std::uint8_t>(to)));
        patch(at + 1, enc_imm(Op::Ldi, 31, static_cast<std::uint8_t>(to >> 8)));
      }
    }
  }

  void io_chunk(bool in_main) {
    switch (rng_.below(6)) {
      case 0: put(Op::In, enc_in(reg(), io_addr(false))); break;
      case 1: put(Op::Out, enc_out(io_addr(true), reg())); break;
      case 2: put(Op::Sbi, enc_sbi_cbi(Op::Sbi, low_io(), any_bit())); break;
      case 3: put(Op::Cbi, enc_sbi_cbi(Op::Cbi, low_io(), any_bit())); break;
      case 4: put2(Op::Lds, enc_lds(reg(), aim(true))); break;
      default: {
        // SP moves only in the SP chunk, where it is restored after.
        std::uint16_t a = aim(in_main);
        if (a == avr::kAddrSpl || a == avr::kAddrSph) a = kDevExt;
        put2(Op::Sts, enc_sts(a, reg()));
      }
    }
  }

  void chunk(bool in_main) {
    const std::uint64_t k = rng_.below(in_main ? 100 : 80);
    if (k < 18) {
      simple();
    } else if (k < 30) {
      pair_chunk();
    } else if (k < 38) {
      pointer_chunk(in_main);
    } else if (k < 46) {
      io_chunk(in_main);
    } else if (k < 52) {
      skip_chunk();
    } else if (k < 58) {
      branch_chunk();
    } else if (k < 62) {
      loop_chunk();
    } else if (k < 66) {
      jump_chunk();
    } else if (k < 70) {
      lpm_chunk();
    } else if (k < 73) {
      if (rng_.chance(0.5)) {
        const std::uint8_t d = pick({0, 16, 24, 26, 30});
        put(Op::Movw, enc_movw(d, pick({0, 16, 24, 26, 30})));
      } else {
        const Op op = rng_.chance(0.5) ? Op::Adiw : Op::Sbiw;
        put(op, enc_adiw(op, pick({24, 26, 28, 30}),
                         static_cast<std::uint8_t>(rng_.below(64))));
      }
    } else if (k < 76) {
      const Op ops[] = {Op::Nop, Op::Sleep, Op::Wdr, Op::Spm};
      const Op op = ops[rng_.below(4)];
      put(op, enc_no_operand(op));
    } else if (k < 80) {
      // Balanced stack traffic.
      const std::uint8_t r = reg();
      put(Op::Push, enc_push(r));
      simple();
      put(Op::Pop, enc_pop(r));
    } else if (k < 88) {
      call_sub();
    } else if (k < 92) {
      sp_chunk();
    } else if (k < 96) {
      // SEI / CLI, RETI as an SEI, and a wholesale SREG write.
      switch (rng_.below(4)) {
        case 0: put(Op::Bset, enc_bset_bclr(Op::Bset, avr::kI)); break;
        case 1: put(Op::Bclr, enc_bset_bclr(Op::Bclr, avr::kI)); break;
        case 2: {
          // rcall to a RETI: returns to the next word with I set.
          put(Op::Rcall, enc_rel_jump(Op::Rcall, 1));
          put(Op::Rjmp, enc_rel_jump(Op::Rjmp, 1));
          put(Op::Reti, enc_no_operand(Op::Reti));
          break;
        }
        default:
          put(Op::Ldi, enc_imm(Op::Ldi, 19, byte()));
          if (rng_.chance(0.5)) {
            put(Op::Out, enc_out(avr::kIoSreg, 19));
          } else {
            put2(Op::Sts, enc_sts(avr::kAddrSreg, 19));
          }
      }
    } else {
      put(Op::Swap, enc_one_reg(Op::Swap, reg()));
    }
  }

  support::Rng& rng_;
  const avr::McuSpec& spec_;
  std::bitset<kOpCount>& seen_;
  std::vector<std::uint16_t> words_;
  std::uint32_t subs_[kSubs] = {};
};

/// Everything the three paths must agree on, data space included.
struct Snapshot {
  std::uint64_t cycles, retired, irqs;
  std::uint32_t pc;
  std::uint16_t sp;
  std::uint8_t sreg;
  avr::CpuState state;
  std::uint32_t fault_pc;
  std::uint16_t fault_opcode;
  std::string fault_reason;
  std::uint64_t fault_cycle;
  std::uint32_t fault_ret_raw;
  bool fault_ret_wrapped;
  std::uint32_t last_ret_raw;
  bool last_ret_wrapped;
  std::uint8_t dev_value;
  std::uint32_t dev_reads, dev_writes;
  std::uint64_t timer_fires;
  bool operator==(const Snapshot&) const = default;
};

Snapshot snap(const Rig& r) {
  const avr::Cpu& c = r.cpu;
  const avr::FaultInfo& f = c.fault();
  return {c.cycles(),      c.instructions_retired(), c.interrupts_taken(),
          c.pc(),          c.sp(),                   c.sreg(),
          c.state(),       f.pc_words,               f.opcode,
          f.reason,        f.cycle,                  f.last_ret_raw_words,
          f.last_ret_wrapped, c.last_ret_raw_words(), c.last_ret_wrapped(),
          r.dev.value,     r.dev.reads,              r.dev.writes,
          r.timer.fires()};
}

std::string describe(const Snapshot& s) {
  std::ostringstream o;
  o << "cycles=" << s.cycles << " retired=" << s.retired
    << " irqs=" << s.irqs << " pc=" << s.pc << " sp=" << s.sp
    << " sreg=" << int{s.sreg} << " state=" << static_cast<int>(s.state)
    << " fault_pc=" << s.fault_pc << " fault_op=" << s.fault_opcode
    << " fault_cycle=" << s.fault_cycle << " last_ret=" << s.last_ret_raw
    << (s.last_ret_wrapped ? "(wrapped)" : "") << " dev=" << int{s.dev_value}
    << "/" << s.dev_reads << "r/" << s.dev_writes << "w"
    << " fires=" << s.timer_fires;
  return o.str();
}

/// First differing data-space address, or -1.
long first_ram_diff(const avr::Cpu& a, const avr::Cpu& b) {
  const std::uint8_t* x = a.data().raw_data();
  const std::uint8_t* y = b.data().raw_data();
  for (std::uint32_t i = 0; i < a.data().size(); ++i) {
    if (x[i] != y[i]) return static_cast<long>(i);
  }
  return -1;
}

/// Uneven slice budgets: single cycles, short runs that end mid-block,
/// and long runs that cross many timer periods.
std::uint64_t slice_budget(support::Rng& rng) {
  switch (rng.below(4)) {
    case 0: return rng.range(1, 3);
    case 1: return rng.range(4, 60);
    case 2: return rng.range(61, 900);
    default: return rng.range(901, 6000);
  }
}

struct DiffTotals {
  std::uint64_t programs = 0;
  std::uint64_t slices = 0;
  std::uint64_t retired = 0;
  std::uint64_t irqs = 0;
  std::uint64_t fused_pairs = 0;
  std::uint64_t block_instructions = 0;
  std::uint64_t side_exits = 0;
  std::uint64_t io_dispatches = 0;
  std::uint64_t halted = 0;  // programs that faulted or stopped
};

void run_program(const avr::McuSpec& spec, std::uint64_t seed,
                 std::bitset<kOpCount>& seen, DiffTotals& totals) {
  support::Rng rng(seed);
  Gen gen(rng, spec, seen);
  const support::Bytes image = gen.build(/*allow_halt=*/rng.chance(0.15));
  const std::uint64_t period = rng.range(23, 700);

  Rig tier(spec, image, Mode::kTier, period);
  Rig interp(spec, image, Mode::kInterp, period);
  Rig traced(spec, image, Mode::kTraced, period);

  constexpr std::uint64_t kCyclesPerProgram = 60'000;
  std::uint64_t spent = 0;
  int slice = 0;
  while (spent < kCyclesPerProgram) {
    const std::uint64_t budget = slice_budget(rng);
    const std::uint64_t r0 = tier.cpu.run(budget);
    const std::uint64_t r1 = interp.cpu.run(budget);
    const std::uint64_t r2 = traced.cpu.run(budget);
    const std::string where = std::string(spec.name) + " seed " +
                              std::to_string(seed) + " slice " +
                              std::to_string(slice) + " budget " +
                              std::to_string(budget);
    ASSERT_EQ(r0, r1) << where;
    ASSERT_EQ(r1, r2) << where;
    const Snapshot s0 = snap(tier), s1 = snap(interp), s2 = snap(traced);
    ASSERT_EQ(s0, s1) << where << "\n tier:   " << describe(s0)
                      << "\n interp: " << describe(s1);
    ASSERT_EQ(s1, s2) << where << "\n interp: " << describe(s1)
                      << "\n traced: " << describe(s2);
    ASSERT_EQ(first_ram_diff(tier.cpu, interp.cpu), -1)
        << where << " (tier vs interp data space)";
    ASSERT_EQ(first_ram_diff(interp.cpu, traced.cpu), -1)
        << where << " (interp vs traced data space)";
    ++totals.slices;
    ++slice;
    spent += budget;
    if (s0.state != avr::CpuState::Running) {
      ++totals.halted;
      break;
    }
  }
  const avr::TierStats& t = tier.cpu.tier_stats();
  ++totals.programs;
  totals.retired += tier.cpu.instructions_retired();
  totals.irqs += tier.cpu.interrupts_taken();
  totals.fused_pairs += t.fused_pairs;
  totals.block_instructions += t.block_instructions;
  totals.side_exits += t.side_exits;
  totals.io_dispatches += t.io_dispatches;
}

TEST(TierDiff, RandomProgramsAgreeOnEveryObservableAfterEverySlice) {
  std::bitset<kOpCount> seen;
  DiffTotals totals;
  for (std::uint64_t p = 0; p < 300; ++p) {
    // Most programs on the ATmega2560 (3-byte return addresses), a share
    // on the ATmega1284P (2-byte returns, a different data-space end).
    const avr::McuSpec& spec =
        p % 4 == 3 ? avr::atmega1284p() : avr::atmega2560();
    run_program(spec, support::Rng::derive_seed(0xD1FF, p), seen, totals);
    if (HasFatalFailure()) return;
  }

  // The generator reached what it is meant to reach.
  for (std::size_t op = 0; op < kOpCount; ++op) {
    EXPECT_TRUE(seen.test(op))
        << "never emitted " << avr::op_name(static_cast<Op>(op));
  }
  EXPECT_GT(totals.fused_pairs, 0u);
  EXPECT_GT(totals.irqs, 1000u);
  EXPECT_GT(totals.side_exits, 100u);
  EXPECT_GT(totals.io_dispatches, 100u);
  EXPECT_GT(totals.block_instructions, totals.retired / 4);
  EXPECT_GT(totals.halted, 0u);
  EXPECT_LT(totals.halted, totals.programs / 2);
  std::cout << "[ diff     ] " << totals.programs << " programs, "
            << totals.slices << " slices, " << totals.retired
            << " instructions (" << totals.block_instructions
            << " in blocks), " << totals.irqs << " interrupts, "
            << totals.fused_pairs << " fused pairs, " << totals.side_exits
            << " side exits, " << totals.io_dispatches << " in-tier I/O, "
            << totals.halted << " halted\n";
}

}  // namespace
}  // namespace mavr
