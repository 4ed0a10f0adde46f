#include "analysis/analyze.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <deque>
#include <map>
#include <set>

#include "avr/mcu.hpp"
#include "avr/walk.hpp"
#include "support/error.hpp"

namespace mavr::analysis {

namespace {

using avr::Op;

std::string fmt(const char* format, ...) {
  char buf[160];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

void sort_unique(std::vector<std::uint16_t>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

// --- Local constant propagation ---------------------------------------------
//
// Per-basic-block forward walk with all state reset at block leaders:
// within a block there are no incoming branches, so a linear transfer is
// exact for what it tracks. The domain is deliberately small — per
// register Unknown / Const(v) / SP-derived-low / SP-derived-high /
// HiMin(v) ("holds v or v+1", the high byte after one carry-unknown
// adc/sbci) plus a known/unknown carry — just enough to prove the three
// pointer shapes the generated firmware uses for stores:
//
//   ldi pairs (+adiw/add/adc with the zero reg)  -> Const / hi-byte >= 2
//   in r28,SPL ; in r29,SPH ; sbiw               -> SP-derived (stack)
//
// Soundness direction matters: classifying a store as "SRAM, ignore"
// when it could hit I/O at run time would make the derived policy miss a
// legitimate store => false positive. Const and hi-byte>=2 (with the
// 0xFF wrap excluded) are genuine proofs. SP-derived frames are treated
// as stack by the same invariant the SP-bounds detector enforces — on a
// clean flight SP never leaves SRAM. Anything else marks the function
// io-unbounded (policy allows everything: less tight, never wrong).

struct AbsVal {
  enum Kind : std::uint8_t { kUnknown, kConst, kSpLo, kSpHi, kHiMin };
  Kind kind = kUnknown;
  std::uint8_t v = 0;
};

struct AbsState {
  AbsVal reg[32];
  bool carry_known = false;
  std::uint8_t carry = 0;

  void reset() { *this = AbsState{}; }
  void kill(unsigned r) { reg[r] = AbsVal{}; }
  void kill_carry() { carry_known = false; }
  void set_const(unsigned r, std::uint8_t v) {
    reg[r] = {AbsVal::kConst, v};
  }
  void set_carry(std::uint8_t c) {
    carry_known = true;
    carry = c;
  }
};

enum class PtrClass : std::uint8_t { kUnknown, kConst, kStack, kRamHigh };

struct PtrVal {
  PtrClass cls = PtrClass::kUnknown;
  std::uint16_t addr = 0;
};

PtrVal eval_pair(const AbsState& s, unsigned lo_reg) {
  const AbsVal& lo = s.reg[lo_reg];
  const AbsVal& hi = s.reg[lo_reg + 1];
  if (lo.kind == AbsVal::kConst && hi.kind == AbsVal::kConst) {
    return {PtrClass::kConst,
            static_cast<std::uint16_t>(lo.v | (hi.v << 8))};
  }
  if (hi.kind == AbsVal::kSpHi) return {PtrClass::kStack, 0};
  // hi >= 2 pins the address into [0x200, ..): provably SRAM whatever the
  // low byte holds. 0xFF is excluded so displacement/post-increment
  // arithmetic cannot wrap below 0x200.
  if (hi.kind == AbsVal::kConst && hi.v >= 2 && hi.v < 0xFF) {
    return {PtrClass::kRamHigh, 0};
  }
  if (hi.kind == AbsVal::kHiMin && hi.v >= 2 && hi.v < 0xFE) {
    return {PtrClass::kRamHigh, 0};
  }
  return {PtrClass::kUnknown, 0};
}

/// Collects the facts the walk proves into the record being built.
struct FactSink {
  FuncRecord* rec;

  void io_write(std::uint16_t addr) {
    if (addr < detect::kPolicyIoSpan) detect::io_bit_set(rec->io_writes, addr);
  }
  void io_read(std::uint16_t addr) {
    if (addr < detect::kPolicyIoSpan) detect::io_bit_set(rec->io_reads, addr);
  }
  void store(const PtrVal& p, std::uint16_t disp) {
    switch (p.cls) {
      case PtrClass::kConst: {
        const std::uint16_t addr = static_cast<std::uint16_t>(p.addr + disp);
        if (addr < detect::kPolicyIoSpan) {
          io_write(addr);
        } else {
          rec->ram_stores.push_back(addr);
        }
        break;
      }
      case PtrClass::kStack:
      case PtrClass::kRamHigh:
        break;  // provably outside the policed window
      case PtrClass::kUnknown:
        rec->io_unbounded = 1;
        break;
    }
  }
  void load(const PtrVal& p, std::uint16_t disp) {
    if (p.cls != PtrClass::kConst) return;  // loads are never policed
    const std::uint16_t addr = static_cast<std::uint16_t>(p.addr + disp);
    if (addr < detect::kPolicyIoSpan) {
      io_read(addr);
    } else {
      rec->ram_loads.push_back(addr);
    }
  }
};

/// Post-increment / pre-decrement pointer updates, keeping whatever class
/// survives the arithmetic.
void bump_pair(AbsState& s, unsigned lo_reg, int delta) {
  AbsVal& lo = s.reg[lo_reg];
  AbsVal& hi = s.reg[lo_reg + 1];
  if (lo.kind == AbsVal::kConst && hi.kind == AbsVal::kConst) {
    const std::uint16_t v = static_cast<std::uint16_t>(
        (lo.v | (hi.v << 8)) + delta);
    lo.v = static_cast<std::uint8_t>(v & 0xFF);
    hi.v = static_cast<std::uint8_t>(v >> 8);
    return;
  }
  if (hi.kind == AbsVal::kSpHi) return;  // stack stays stack
  if (hi.kind == AbsVal::kConst || hi.kind == AbsVal::kHiMin) {
    // One step can carry/borrow into the high byte at most once.
    const std::uint8_t base =
        delta >= 0 ? hi.v : static_cast<std::uint8_t>(hi.v - 1);
    hi = {AbsVal::kHiMin, base};
    lo = AbsVal{};
    return;
  }
  lo = AbsVal{};
  hi = AbsVal{};
}

void clobber_call(AbsState& s) {
  // avr-gcc call-clobbered set: r0, r1 (mul scratch), r18-r27, r30, r31.
  // Y (r28/r29) and r2-r17 are callee-saved and keep their facts.
  s.kill(0);
  s.kill(1);
  for (unsigned r = 18; r <= 27; ++r) s.kill(r);
  s.kill(30);
  s.kill(31);
  s.kill_carry();
}

/// Transfer function for one instruction.
void step(AbsState& s, const avr::Instr& in, FactSink& sink) {
  const unsigned rd = in.rd;
  const unsigned rr = in.rr;
  const AbsVal a = s.reg[rd];
  const AbsVal b = s.reg[rr];
  const bool cc = a.kind == AbsVal::kConst && b.kind == AbsVal::kConst;
  switch (in.op) {
    case Op::Ldi:
      s.set_const(rd, static_cast<std::uint8_t>(in.k));
      break;
    case Op::Mov:
      s.reg[rd] = b;
      break;
    case Op::Movw:
      s.reg[rd] = s.reg[rr];
      s.reg[rd + 1] = s.reg[rr + 1];
      break;
    case Op::Eor:
      if (rd == rr) {
        s.set_const(rd, 0);
      } else if (cc) {
        s.set_const(rd, a.v ^ b.v);
      } else {
        s.kill(rd);
      }
      break;
    case Op::Add:
      if (cc) {
        const unsigned sum = a.v + b.v;
        s.set_const(rd, static_cast<std::uint8_t>(sum));
        s.set_carry(sum > 0xFF ? 1 : 0);
      } else {
        s.kill(rd);
        s.kill_carry();
      }
      break;
    case Op::Adc:
      if (cc && s.carry_known) {
        const unsigned sum = a.v + b.v + s.carry;
        s.set_const(rd, static_cast<std::uint8_t>(sum));
        s.set_carry(sum > 0xFF ? 1 : 0);
      } else if (cc && a.v + b.v < 0xFF) {
        // Result is sum or sum+1 — the HiMin shape that keeps a
        // ldi-pair + add/adc pointer's high byte provable.
        s.reg[rd] = {AbsVal::kHiMin, static_cast<std::uint8_t>(a.v + b.v)};
        s.set_carry(0);
      } else {
        s.kill(rd);
        s.kill_carry();
      }
      break;
    case Op::Sub:
      if (cc) {
        s.set_const(rd, static_cast<std::uint8_t>(a.v - b.v));
        s.set_carry(b.v > a.v ? 1 : 0);
      } else {
        s.kill(rd);
        s.kill_carry();
      }
      break;
    case Op::Subi:
      if (a.kind == AbsVal::kConst) {
        const std::uint8_t k = static_cast<std::uint8_t>(in.k);
        s.set_const(rd, static_cast<std::uint8_t>(a.v - k));
        s.set_carry(k > a.v ? 1 : 0);
      } else {
        s.kill(rd);
        s.kill_carry();
      }
      break;
    case Op::Sbci:
      if (a.kind == AbsVal::kConst) {
        const std::uint8_t k = static_cast<std::uint8_t>(in.k);
        if (s.carry_known) {
          const unsigned sub = k + s.carry;
          s.set_const(rd, static_cast<std::uint8_t>(a.v - sub));
          s.set_carry(sub > a.v ? 1 : 0);
          break;
        }
        if (a.v >= k + 1u) {  // no borrow whatever the carry was
          s.reg[rd] = {AbsVal::kHiMin,
                       static_cast<std::uint8_t>(a.v - k - 1)};
          s.set_carry(0);
          break;
        }
      }
      s.kill(rd);
      s.kill_carry();
      break;
    case Op::Sbc:
      if (cc && s.carry_known) {
        const unsigned sub = b.v + s.carry;
        s.set_const(rd, static_cast<std::uint8_t>(a.v - sub));
        s.set_carry(sub > a.v ? 1 : 0);
      } else {
        s.kill(rd);
        s.kill_carry();
      }
      break;
    case Op::Andi:
      if (a.kind == AbsVal::kConst) {
        s.set_const(rd, a.v & static_cast<std::uint8_t>(in.k));
      } else {
        s.kill(rd);
      }
      break;
    case Op::Ori:
      if (a.kind == AbsVal::kConst) {
        s.set_const(rd, a.v | static_cast<std::uint8_t>(in.k));
      } else {
        s.kill(rd);
      }
      break;
    case Op::And:
      if (cc) s.set_const(rd, a.v & b.v); else s.kill(rd);
      break;
    case Op::Or:
      if (cc) s.set_const(rd, a.v | b.v); else s.kill(rd);
      break;
    case Op::Com:
      if (a.kind == AbsVal::kConst) s.set_const(rd, ~a.v); else s.kill(rd);
      s.set_carry(1);  // COM always sets C
      break;
    case Op::Neg:
      if (a.kind == AbsVal::kConst) {
        s.set_const(rd, static_cast<std::uint8_t>(-a.v));
        s.set_carry(a.v != 0 ? 1 : 0);
      } else {
        s.kill(rd);
        s.kill_carry();
      }
      break;
    case Op::Inc:
      if (a.kind == AbsVal::kConst) {
        s.set_const(rd, static_cast<std::uint8_t>(a.v + 1));
      } else {
        s.kill(rd);
      }
      break;
    case Op::Dec:
      if (a.kind == AbsVal::kConst) {
        s.set_const(rd, static_cast<std::uint8_t>(a.v - 1));
      } else {
        s.kill(rd);
      }
      break;
    case Op::Swap:
      if (a.kind == AbsVal::kConst) {
        s.set_const(rd, static_cast<std::uint8_t>((a.v << 4) | (a.v >> 4)));
      } else {
        s.kill(rd);
      }
      break;
    case Op::Lsr:
      if (a.kind == AbsVal::kConst) {
        s.set_const(rd, a.v >> 1);
        s.set_carry(a.v & 1);
      } else {
        s.kill(rd);
        s.kill_carry();
      }
      break;
    case Op::Asr:
      if (a.kind == AbsVal::kConst) {
        s.set_const(rd, static_cast<std::uint8_t>(
                            (a.v >> 1) | (a.v & 0x80)));
        s.set_carry(a.v & 1);
      } else {
        s.kill(rd);
        s.kill_carry();
      }
      break;
    case Op::Ror:
      if (a.kind == AbsVal::kConst && s.carry_known) {
        const std::uint8_t out_c = a.v & 1;
        s.set_const(rd, static_cast<std::uint8_t>(
                            (a.v >> 1) | (s.carry << 7)));
        s.set_carry(out_c);
      } else {
        const bool c_known = a.kind == AbsVal::kConst;
        const std::uint8_t c = a.v & 1;
        s.kill(rd);
        if (c_known) s.set_carry(c); else s.kill_carry();
      }
      break;
    case Op::Mul:
      s.kill(0);
      s.kill(1);
      s.kill_carry();
      break;
    case Op::Adiw:
    case Op::Sbiw: {
      const int delta = (in.op == Op::Adiw) ? in.k : -in.k;
      AbsVal& lo = s.reg[rd];
      AbsVal& hi = s.reg[rd + 1];
      if (lo.kind == AbsVal::kConst && hi.kind == AbsVal::kConst) {
        const unsigned v = static_cast<unsigned>(lo.v | (hi.v << 8));
        const std::uint16_t r = static_cast<std::uint16_t>(
            static_cast<int>(v) + delta);
        lo.v = static_cast<std::uint8_t>(r & 0xFF);
        hi.v = static_cast<std::uint8_t>(r >> 8);
        s.set_carry(in.op == Op::Adiw ? (v + in.k > 0xFFFF ? 1 : 0)
                                      : (in.k > v ? 1 : 0));
      } else if (hi.kind == AbsVal::kSpHi) {
        // SP-derived frame arithmetic keeps the stack classification.
        s.kill_carry();
      } else {
        bump_pair(s, rd, delta);
        s.kill_carry();
      }
      break;
    }
    case Op::Cp:
    case Op::Cpi:
      if (in.op == Op::Cpi ? a.kind == AbsVal::kConst : cc) {
        const std::uint8_t k =
            in.op == Op::Cpi ? static_cast<std::uint8_t>(in.k) : b.v;
        s.set_carry(k > a.v ? 1 : 0);
      } else {
        s.kill_carry();
      }
      break;
    case Op::Cpc:
      s.kill_carry();
      break;
    case Op::In:
      sink.io_read(static_cast<std::uint16_t>(in.k + avr::kIoBase));
      if (in.k == avr::kIoSpl) {
        s.reg[rd] = {AbsVal::kSpLo, 0};
      } else if (in.k == avr::kIoSph) {
        s.reg[rd] = {AbsVal::kSpHi, 0};
      } else {
        s.kill(rd);
      }
      break;
    case Op::Out:
      sink.io_write(static_cast<std::uint16_t>(in.k + avr::kIoBase));
      break;
    case Op::Sbi:
    case Op::Cbi:
      sink.io_write(static_cast<std::uint16_t>(in.k + avr::kIoBase));
      break;
    case Op::Sbic:
    case Op::Sbis:
      sink.io_read(static_cast<std::uint16_t>(in.k + avr::kIoBase));
      break;
    case Op::Lds:
      if (in.k < detect::kPolicyIoSpan) {
        sink.io_read(in.k);
      } else {
        sink.rec->ram_loads.push_back(in.k);
      }
      s.kill(rd);
      break;
    case Op::Sts:
      if (in.k < detect::kPolicyIoSpan) {
        sink.io_write(in.k);
      } else {
        sink.rec->ram_stores.push_back(in.k);
      }
      break;
    case Op::LdX:
      sink.load(eval_pair(s, 26), 0);
      s.kill(rd);
      break;
    case Op::LdXInc:
      sink.load(eval_pair(s, 26), 0);
      bump_pair(s, 26, 1);
      s.kill(rd);
      break;
    case Op::LdXDec:
      bump_pair(s, 26, -1);
      sink.load(eval_pair(s, 26), 0);
      s.kill(rd);
      break;
    case Op::LdYInc:
      sink.load(eval_pair(s, 28), 0);
      bump_pair(s, 28, 1);
      s.kill(rd);
      break;
    case Op::LdYDec:
      bump_pair(s, 28, -1);
      sink.load(eval_pair(s, 28), 0);
      s.kill(rd);
      break;
    case Op::LddY:
      sink.load(eval_pair(s, 28), in.k);
      s.kill(rd);
      break;
    case Op::LdZInc:
      sink.load(eval_pair(s, 30), 0);
      bump_pair(s, 30, 1);
      s.kill(rd);
      break;
    case Op::LdZDec:
      bump_pair(s, 30, -1);
      sink.load(eval_pair(s, 30), 0);
      s.kill(rd);
      break;
    case Op::LddZ:
      sink.load(eval_pair(s, 30), in.k);
      s.kill(rd);
      break;
    case Op::StX:
      sink.store(eval_pair(s, 26), 0);
      break;
    case Op::StXInc:
      sink.store(eval_pair(s, 26), 0);
      bump_pair(s, 26, 1);
      break;
    case Op::StXDec: {
      bump_pair(s, 26, -1);
      // A pre-decrement can step a RamHigh pointer from exactly 0x200
      // down into extended I/O, so only Const/Stack survive as proofs.
      const PtrVal p = eval_pair(s, 26);
      sink.store(p.cls == PtrClass::kRamHigh ? PtrVal{} : p, 0);
      break;
    }
    case Op::StYInc:
      sink.store(eval_pair(s, 28), 0);
      bump_pair(s, 28, 1);
      break;
    case Op::StYDec: {
      bump_pair(s, 28, -1);
      const PtrVal p = eval_pair(s, 28);
      sink.store(p.cls == PtrClass::kRamHigh ? PtrVal{} : p, 0);
      break;
    }
    case Op::StdY:
      sink.store(eval_pair(s, 28), in.k);
      break;
    case Op::StZInc:
      sink.store(eval_pair(s, 30), 0);
      bump_pair(s, 30, 1);
      break;
    case Op::StZDec: {
      bump_pair(s, 30, -1);
      const PtrVal p = eval_pair(s, 30);
      sink.store(p.cls == PtrClass::kRamHigh ? PtrVal{} : p, 0);
      break;
    }
    case Op::StdZ:
      sink.store(eval_pair(s, 30), in.k);
      break;
    case Op::LpmR0:
    case Op::ElpmR0:
      s.kill(0);
      break;
    case Op::Lpm:
    case Op::Elpm:
      s.kill(rd);
      break;
    case Op::LpmInc:
    case Op::ElpmInc:
      s.kill(rd);
      bump_pair(s, 30, 1);
      break;
    case Op::Pop:
      s.kill(rd);
      break;
    case Op::Push:
      break;
    case Op::Bset:
      if (in.bit == 0) s.set_carry(1);  // SREG bit 0 is C
      break;
    case Op::Bclr:
      if (in.bit == 0) s.set_carry(0);
      break;
    case Op::Bld:
      s.kill(rd);
      break;
    case Op::Bst:
      break;
    case Op::Call:
    case Op::Rcall:
    case Op::Icall:
    case Op::Eicall:
      clobber_call(s);
      break;
    // Terminators and no-ops: no register effects tracked.
    case Op::Rjmp: case Op::Jmp: case Op::Ijmp: case Op::Eijmp:
    case Op::Ret: case Op::Reti: case Op::Brbs: case Op::Brbc:
    case Op::Cpse: case Op::Sbrc: case Op::Sbrs:
    case Op::Nop: case Op::Sleep: case Op::Break: case Op::Wdr:
    case Op::Spm: case Op::Invalid:
      break;
    default:
      // Anything unanticipated: forget its destination and the carry.
      s.kill(rd);
      s.kill_carry();
      break;
  }
}

void run_constprop(std::span<const std::uint8_t> body, const RegionCfg& cfg,
                   FuncRecord& rec) {
  FactSink sink{&rec};
  AbsState state;
  for (const BasicBlock& block : cfg.blocks) {
    state.reset();  // leaders may be reached from anywhere: assume nothing
    avr::for_each_instr(
        body.subspan(block.start, block.end - block.start), block.start,
        [&](std::uint32_t, const avr::Instr& in) { step(state, in, sink); });
  }
  sort_unique(rec.ram_stores);
  sort_unique(rec.ram_loads);
}

}  // namespace

// --- FuncRecord wire form ---------------------------------------------------

namespace {

void put_bitset(support::ByteWriter& w, const detect::IoBitset& bits) {
  for (std::uint64_t word : bits) {
    w.u32_le(static_cast<std::uint32_t>(word & 0xFFFFFFFFu));
    w.u32_le(static_cast<std::uint32_t>(word >> 32));
  }
}

detect::IoBitset get_bitset(support::ByteReader& r) {
  detect::IoBitset bits{};
  for (std::uint64_t& word : bits) {
    const std::uint64_t lo = r.u32_le();
    const std::uint64_t hi = r.u32_le();
    word = lo | (hi << 32);
  }
  return bits;
}

constexpr std::uint32_t kMaxRecordItems = 1u << 20;

std::uint32_t get_count(support::ByteReader& r) {
  const std::uint32_t n = r.u32_le();
  MAVR_REQUIRE(n <= kMaxRecordItems, "analysis record count implausible");
  return n;
}

}  // namespace

support::Bytes FuncRecord::serialize() const {
  support::Bytes out;
  support::ByteWriter w(out);
  w.u32_le(size);
  w.u32_le(n_blocks);
  w.u32_le(n_edges);
  w.u8(indirect_jump_sites);
  w.u8(open_ended);
  w.u8(io_unbounded);
  put_bitset(w, io_writes);
  put_bitset(w, io_reads);
  w.u32_le(static_cast<std::uint32_t>(calls.size()));
  for (const FuncCall& c : calls) {
    w.u32_le(c.offset);
    w.u32_le(c.ret_offset);
    w.u8(c.indirect);
    w.u32_le(static_cast<std::uint32_t>(c.callee));
    w.u32_le(c.callee_offset);
  }
  w.u32_le(static_cast<std::uint32_t>(tail_jumps.size()));
  for (const FuncTailJump& t : tail_jumps) {
    w.u32_le(t.offset);
    w.u32_le(static_cast<std::uint32_t>(t.callee));
    w.u32_le(t.callee_offset);
  }
  w.u32_le(static_cast<std::uint32_t>(ram_stores.size()));
  for (std::uint16_t a : ram_stores) w.u16_le(a);
  w.u32_le(static_cast<std::uint32_t>(ram_loads.size()));
  for (std::uint16_t a : ram_loads) w.u16_le(a);
  w.u32_le(static_cast<std::uint32_t>(gadgets.size()));
  for (const FuncGadget& g : gadgets) {
    w.u32_le(g.offset);
    w.u8(static_cast<std::uint8_t>(g.kind));
    w.u8(g.pop_count);
  }
  w.u32_le(census.ret_gadgets);
  w.u32_le(census.stk_move_gadgets);
  w.u32_le(census.write_mem_gadgets);
  w.u32_le(census.pop_chain_gadgets);
  return out;
}

FuncRecord FuncRecord::deserialize(std::span<const std::uint8_t> data) {
  support::ByteReader r(data);
  FuncRecord rec;
  rec.size = r.u32_le();
  rec.n_blocks = r.u32_le();
  rec.n_edges = r.u32_le();
  rec.indirect_jump_sites = r.u8();
  rec.open_ended = r.u8();
  rec.io_unbounded = r.u8();
  rec.io_writes = get_bitset(r);
  rec.io_reads = get_bitset(r);
  const std::uint32_t n_calls = get_count(r);
  rec.calls.reserve(n_calls);
  for (std::uint32_t i = 0; i < n_calls; ++i) {
    FuncCall c;
    c.offset = r.u32_le();
    c.ret_offset = r.u32_le();
    c.indirect = r.u8();
    c.callee = static_cast<std::int32_t>(r.u32_le());
    c.callee_offset = r.u32_le();
    rec.calls.push_back(c);
  }
  const std::uint32_t n_tails = get_count(r);
  rec.tail_jumps.reserve(n_tails);
  for (std::uint32_t i = 0; i < n_tails; ++i) {
    FuncTailJump t;
    t.offset = r.u32_le();
    t.callee = static_cast<std::int32_t>(r.u32_le());
    t.callee_offset = r.u32_le();
    rec.tail_jumps.push_back(t);
  }
  const std::uint32_t n_stores = get_count(r);
  rec.ram_stores.reserve(n_stores);
  for (std::uint32_t i = 0; i < n_stores; ++i) {
    rec.ram_stores.push_back(r.u16_le());
  }
  const std::uint32_t n_loads = get_count(r);
  rec.ram_loads.reserve(n_loads);
  for (std::uint32_t i = 0; i < n_loads; ++i) {
    rec.ram_loads.push_back(r.u16_le());
  }
  const std::uint32_t n_gadgets = get_count(r);
  rec.gadgets.reserve(n_gadgets);
  for (std::uint32_t i = 0; i < n_gadgets; ++i) {
    FuncGadget g;
    g.offset = r.u32_le();
    g.kind = static_cast<attack::GadgetKind>(r.u8());
    g.pop_count = r.u8();
    rec.gadgets.push_back(g);
  }
  rec.census.ret_gadgets = r.u32_le();
  rec.census.stk_move_gadgets = r.u32_le();
  rec.census.write_mem_gadgets = r.u32_le();
  rec.census.pop_chain_gadgets = r.u32_le();
  MAVR_REQUIRE(r.done(), "trailing bytes after analysis record");
  return rec;
}

// --- Canonical hashing ------------------------------------------------------

support::Sha256Digest canonical_function_digest(
    std::span<const std::uint8_t> image, std::uint32_t addr,
    std::uint32_t size, const toolchain::FunctionIndex& index,
    std::span<const toolchain::PointerSlot> slots) {
  MAVR_REQUIRE(std::uint64_t{addr} + size <= image.size(),
               "function range outside the image");
  // Hot path of a cache hit (one call per function per image) — reuse the
  // working buffers across calls instead of reallocating.
  static thread_local support::Bytes scratch;
  static thread_local support::Bytes meta;
  scratch.assign(image.begin() + addr, image.begin() + addr + size);
  meta.clear();
  support::ByteWriter mw(meta);
  mw.u32_le(size);
  // One linear walk with real instruction boundaries, cut by the walker's
  // rule (avr::instr_words is a bit test, not a decode): JMP/CALL opcodes
  // are recognized by their fixed bits (1001 010k kkkk 11xk), the only
  // words the randomizer patches inside code. Their 22-bit targets are
  // masked out of the hashed bytes and re-expressed as (callee index,
  // offset), which is identical across permutations.
  std::uint32_t pos = 0;
  while (pos + 2 <= size) {
    const std::uint16_t w1 = support::load_u16_le(image, addr + pos);
    const std::uint32_t words = avr::instr_words(w1, (size - pos) / 2);
    if (words == 0) break;  // truncated: keep the raw bytes
    if ((w1 & 0xFE0E) == 0x940C || (w1 & 0xFE0E) == 0x940E) {
      const std::uint16_t w2 = support::load_u16_le(image, addr + pos + 2);
      const avr::Instr in = avr::decode(w1, w2);
      const std::uint32_t target = static_cast<std::uint32_t>(in.target) * 2;
      std::uint32_t off = 0;
      const int callee = index.containing(target, &off);
      support::store_u16_le(scratch, pos,
                            static_cast<std::uint16_t>(w1 & ~0x01F1));
      support::store_u16_le(scratch, pos + 2, 0);
      mw.u32_le(pos);
      mw.u32_le(static_cast<std::uint32_t>(callee));
      mw.u32_le(callee >= 0 ? off : target);
    }
    pos += words * 2;
  }
  // Pointer slots inside the function body (none in generated firmware,
  // where tables live in the data-init region — handled for generality):
  // the stored word address moves with its target, so mask the bytes and
  // append the resolved identity instead.
  for (const toolchain::PointerSlot& slot : slots) {
    if (slot.image_offset < addr ||
        std::uint64_t{slot.image_offset} + slot.width > addr + size) {
      continue;
    }
    std::uint32_t value = 0;
    for (unsigned i = 0; i < slot.width; ++i) {
      value |= static_cast<std::uint32_t>(image[slot.image_offset + i])
               << (8 * i);
    }
    const std::uint32_t target = value * 2;
    std::uint32_t off = 0;
    const int callee = index.containing(target, &off);
    for (unsigned i = 0; i < slot.width; ++i) {
      scratch[slot.image_offset - addr + i] = 0;
    }
    mw.u32_le(slot.image_offset - addr);
    mw.u8(slot.width);
    mw.u32_le(static_cast<std::uint32_t>(callee));
    mw.u32_le(callee >= 0 ? off : target);
  }
  support::Sha256 h;
  h.update(scratch);
  h.update(meta);
  return h.finish();
}

// --- Per-function analysis --------------------------------------------------

FuncRecord analyze_function(std::span<const std::uint8_t> body,
                            std::uint32_t addr,
                            const toolchain::FunctionIndex& index) {
  // Absolute byte targets; an rjmp near the base can reach below zero.
  const auto resolve = [&](std::int64_t target, std::uint32_t* off) {
    return target < 0 ? -1
                      : index.containing(static_cast<std::uint32_t>(target),
                                         off);
  };
  FuncRecord rec;
  rec.size = static_cast<std::uint32_t>(body.size());
  const RegionCfg cfg = build_region_cfg(body, addr);
  rec.n_blocks = static_cast<std::uint32_t>(cfg.blocks.size());
  rec.n_edges = cfg.n_edges();
  rec.indirect_jump_sites = static_cast<std::uint8_t>(
      std::min<std::size_t>(cfg.indirect_jumps.size(), 255));
  for (const BasicBlock& b : cfg.blocks) {
    if (b.end_kind == BlockEnd::kFallsOffEnd ||
        b.end_kind == BlockEnd::kTruncated) {
      rec.open_ended = 1;
    }
  }
  for (const CallSite& c : cfg.calls) {
    FuncCall fc;
    fc.offset = c.offset;
    fc.ret_offset = c.ret_offset;
    fc.indirect = c.indirect ? 1 : 0;
    if (!c.indirect) {
      std::uint32_t off = 0;
      fc.callee = resolve(c.target, &off);
      fc.callee_offset =
          fc.callee >= 0
              ? off
              : static_cast<std::uint32_t>(std::max<std::int64_t>(c.target, 0));
    }
    rec.calls.push_back(fc);
  }
  for (const JumpOut& j : cfg.jumps_out) {
    FuncTailJump tj;
    tj.offset = j.offset;
    std::uint32_t off = 0;
    tj.callee = resolve(j.target, &off);
    tj.callee_offset =
        tj.callee >= 0
            ? off
            : static_cast<std::uint32_t>(std::max<std::int64_t>(j.target, 0));
    rec.tail_jumps.push_back(tj);
  }
  run_constprop(body, cfg, rec);
  const attack::GadgetFinder finder(body, rec.size);
  rec.census = finder.census();
  rec.gadgets.reserve(finder.sites().size());
  for (const attack::GadgetSite& site : finder.sites()) {
    rec.gadgets.push_back({site.byte_addr, site.kind, site.pop_count});
  }
  return rec;
}

// --- Whole-image analysis ---------------------------------------------------

AnalysisReport Analyzer::analyze(std::span<const std::uint8_t> image,
                                 const toolchain::SymbolBlob& blob) const {
  const std::size_t n = blob.function_addrs.size();
  MAVR_REQUIRE(blob.function_sizes.size() == n,
               "blob address/size arrays must be parallel");
  const toolchain::FunctionIndex index(blob.function_addrs,
                                       blob.function_sizes);

  AnalysisReport rep;
  rep.image_digest = support::sha256(image);
  rep.text_end = blob.text_end;
  rep.n_functions = static_cast<std::uint32_t>(n);

  // Per-function records: canonical digest first, cold analysis only on a
  // cache miss. A rerandomized image hits on every function. The decoded_
  // memo sits in front of the byte-level cache so repeat encounters of a
  // digest skip deserialization too; entries are stable (node-based map),
  // so recs can hold pointers for the aggregate passes below.
  std::vector<const FuncRecord*> recs;
  recs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t addr = blob.function_addrs[i];
    const std::uint32_t size = blob.function_sizes[i];
    const support::Sha256Digest digest = canonical_function_digest(
        image, addr, size, index, blob.pointer_slots);
    if (const auto memo = decoded_.find(digest); memo != decoded_.end()) {
      recs.push_back(&memo->second);
      ++rep.cache_hits;
      continue;
    }
    const support::Bytes* hit =
        cache_ != nullptr ? cache_->lookup(digest) : nullptr;
    if (hit != nullptr) {
      const auto it =
          decoded_.emplace(digest, FuncRecord::deserialize(*hit)).first;
      recs.push_back(&it->second);
      ++rep.cache_hits;
    } else {
      FuncRecord rec =
          analyze_function(image.subspan(addr, size), addr, index);
      if (cache_ != nullptr) cache_->insert(digest, rec.serialize());
      const auto it = decoded_.emplace(digest, std::move(rec)).first;
      recs.push_back(&it->second);
      ++rep.cache_misses;
    }
  }

  // Address-taken functions: every target a pointer slot currently holds.
  std::vector<std::uint8_t> addr_taken(n, 0);
  for (const toolchain::PointerSlot& slot : blob.pointer_slots) {
    if (std::uint64_t{slot.image_offset} + slot.width > image.size()) continue;
    std::uint32_t value = 0;
    for (unsigned b = 0; b < slot.width; ++b) {
      value |= static_cast<std::uint32_t>(image[slot.image_offset + b])
               << (8 * b);
    }
    const int idx = index.containing(value * 2);
    if (idx >= 0) addr_taken[static_cast<std::size_t>(idx)] = 1;
  }
  rep.address_taken = static_cast<std::uint32_t>(
      std::count(addr_taken.begin(), addr_taken.end(), 1));

  for (const FuncRecord* rec : recs) {
    rep.n_blocks += rec->n_blocks;
    rep.n_edges += rec->n_edges;
    rep.indirect_jump_sites += rec->indirect_jump_sites;
    for (const FuncCall& c : rec->calls) {
      if (c.indirect) {
        ++rep.indirect_call_sites;
      } else if (c.callee >= 0) {
        ++rep.call_edges;
      }
    }
  }

  // Degrade to generic semantics when the analysis cannot be
  // layout-stable: materialized code pointers the randomizer refuses
  // anyway, or a function whose control flow runs off its own end (what
  // follows it changes with every permutation).
  bool degrade = blob.has_ldi_code_pointers;
  for (const FuncRecord* rec : recs) degrade = degrade || rec->open_ended != 0;

  // Return-edge policy: every direct call contributes its successor to
  // the callee's site set; indirect call sites contribute to every
  // address-taken function; tail jumps (and indirect jumps that may land
  // in address-taken code) share the jumper's sites with the landing
  // function, closed to a fixed point.
  rep.policy.functions.resize(n);
  std::vector<detect::PolicyRetSite> indirect_sites;
  for (std::size_t g = 0; g < n; ++g) {
    for (const FuncCall& c : recs[g]->calls) {
      if (c.indirect) {
        indirect_sites.push_back(
            {static_cast<std::uint32_t>(g), c.ret_offset});
      } else if (c.callee >= 0) {
        rep.policy.functions[static_cast<std::size_t>(c.callee)]
            .ret_sites.push_back(
                {static_cast<std::uint32_t>(g), c.ret_offset});
      }
    }
  }
  for (std::size_t f = 0; f < n; ++f) {
    if (!addr_taken[f]) continue;
    auto& sites = rep.policy.functions[f].ret_sites;
    sites.insert(sites.end(), indirect_sites.begin(), indirect_sites.end());
  }
  std::vector<std::pair<std::uint32_t, std::uint32_t>> share_edges;
  for (std::size_t g = 0; g < n; ++g) {
    for (const FuncTailJump& t : recs[g]->tail_jumps) {
      if (t.callee >= 0 && static_cast<std::size_t>(t.callee) != g) {
        share_edges.push_back({static_cast<std::uint32_t>(g),
                               static_cast<std::uint32_t>(t.callee)});
      }
    }
    if (recs[g]->indirect_jump_sites > 0) {
      for (std::size_t f = 0; f < n; ++f) {
        if (addr_taken[f] && f != g) {
          share_edges.push_back({static_cast<std::uint32_t>(g),
                                 static_cast<std::uint32_t>(f)});
        }
      }
    }
  }
  const auto canon_sites = [](std::vector<detect::PolicyRetSite>& v) {
    std::sort(v.begin(), v.end(),
              [](const detect::PolicyRetSite& a,
                 const detect::PolicyRetSite& b) {
                return a.caller_index != b.caller_index
                           ? a.caller_index < b.caller_index
                           : a.offset < b.offset;
              });
    v.erase(std::unique(v.begin(), v.end()), v.end());
  };
  for (auto& fp : rep.policy.functions) canon_sites(fp.ret_sites);
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& [from, to] : share_edges) {
      auto& src = rep.policy.functions[from].ret_sites;
      auto& dst = rep.policy.functions[to].ret_sites;
      const std::size_t before = dst.size();
      dst.insert(dst.end(), src.begin(), src.end());
      canon_sites(dst);
      changed = changed || dst.size() != before;
    }
  }

  // I/O privilege policy straight from the per-function facts.
  for (std::size_t i = 0; i < n; ++i) {
    detect::FuncPolicy& fp = rep.policy.functions[i];
    fp.io_allow = recs[i]->io_writes;
    fp.io_unbounded = degrade || recs[i]->io_unbounded != 0;
    fp.ret_unbounded = degrade;
    if (!fp.io_unbounded) ++rep.io_bounded;
    if (!fp.ret_unbounded) ++rep.ret_bounded;
  }

  // Taint: BFS from the functions that read a MAVLink RX register, over
  // call edges, tail jumps, indirect dispatch into address-taken code,
  // and RAM def/use pairs (a provable store in one function read by a
  // provable load in another).
  std::vector<std::vector<std::uint32_t>> out_edges(n);
  // (address, reader) pairs, sorted by address: ram_loads are sorted per
  // record and g ascends, so the pairs come out ordered — no map needed.
  std::vector<std::pair<std::uint16_t, std::uint32_t>> ram_readers;
  for (std::size_t g = 0; g < n; ++g) {
    bool has_indirect_call = false;
    for (const FuncCall& c : recs[g]->calls) {
      if (c.indirect) {
        has_indirect_call = true;
      } else if (c.callee >= 0) {
        out_edges[g].push_back(static_cast<std::uint32_t>(c.callee));
      }
    }
    if (has_indirect_call) {
      for (std::size_t f = 0; f < n; ++f) {
        if (addr_taken[f]) {
          out_edges[g].push_back(static_cast<std::uint32_t>(f));
        }
      }
    }
    for (const FuncTailJump& t : recs[g]->tail_jumps) {
      if (t.callee >= 0) {
        out_edges[g].push_back(static_cast<std::uint32_t>(t.callee));
      }
    }
    for (std::uint16_t a : recs[g]->ram_loads) {
      ram_readers.push_back({a, static_cast<std::uint32_t>(g)});
    }
  }
  std::sort(ram_readers.begin(), ram_readers.end());
  rep.taint_depth.assign(n, -1);
  std::deque<std::uint32_t> queue;
  for (std::size_t i = 0; i < n; ++i) {
    bool source = false;
    for (std::uint16_t src : options_.taint_sources) {
      if (src < detect::kPolicyIoSpan) {
        source = source || detect::io_bit_test(recs[i]->io_reads, src);
      } else {
        source = source || std::binary_search(recs[i]->ram_loads.begin(),
                                              recs[i]->ram_loads.end(), src);
      }
    }
    if (source) {
      rep.taint_depth[i] = 0;
      queue.push_back(static_cast<std::uint32_t>(i));
    }
  }
  // The RAM def/use pairs are a writers×readers cross product per address;
  // materializing those edges is quadratic in the fan-in/fan-out of hot
  // globals. BFS depths don't need them: the first *dequeued* writer of an
  // address has the minimal depth of any tainted writer, so propagating an
  // address once — to every reader, when that first writer is processed —
  // yields the same shortest-path depths in linear work.
  std::set<std::uint16_t> ram_spread;
  while (!queue.empty()) {
    const std::uint32_t g = queue.front();
    queue.pop_front();
    const auto visit = [&](std::uint32_t f) {
      if (rep.taint_depth[f] < 0) {
        rep.taint_depth[f] = rep.taint_depth[g] + 1;
        queue.push_back(f);
      }
    };
    for (std::uint32_t f : out_edges[g]) visit(f);
    for (std::uint16_t a : recs[g]->ram_stores) {
      if (!ram_spread.insert(a).second) continue;
      auto it = std::lower_bound(
          ram_readers.begin(), ram_readers.end(),
          std::pair<std::uint16_t, std::uint32_t>{a, 0});
      for (; it != ram_readers.end() && it->first == a; ++it) {
        if (it->second != g) visit(it->second);
      }
    }
  }
  rep.tainted_functions = static_cast<std::uint32_t>(
      std::count_if(rep.taint_depth.begin(), rep.taint_depth.end(),
                    [](std::int32_t d) { return d >= 0; }));

  // Weighted gadget census: per-function sites inherit their function's
  // taint depth; the inter-function gaps (padding, erased-flash slack in
  // randomized layouts) are scanned fresh and count as unreachable. The
  // partition equals a whole-image GadgetFinder sweep (pinned by test).
  const auto add_gadget = [&](std::uint32_t byte_addr,
                              const FuncGadget& g, std::int32_t func) {
    RankedGadget rg;
    rg.byte_addr = byte_addr;
    rg.kind = g.kind;
    rg.pop_count = g.pop_count;
    rg.func = func;
    rg.depth = func >= 0 ? rep.taint_depth[static_cast<std::size_t>(func)]
                         : -1;
    rg.weight = rg.depth >= 0 ? 1.0 / (1.0 + rg.depth) : 0.0;
    rep.gadgets.push_back(rg);
  };
  for (std::size_t i = 0; i < n; ++i) {
    rep.census.ret_gadgets += recs[i]->census.ret_gadgets;
    rep.census.stk_move_gadgets += recs[i]->census.stk_move_gadgets;
    rep.census.write_mem_gadgets += recs[i]->census.write_mem_gadgets;
    rep.census.pop_chain_gadgets += recs[i]->census.pop_chain_gadgets;
    for (const FuncGadget& g : recs[i]->gadgets) {
      add_gadget(blob.function_addrs[i] + g.offset, g,
                 static_cast<std::int32_t>(i));
    }
  }
  const auto scan_gap = [&](std::uint32_t lo, std::uint32_t hi) {
    if (hi <= lo || hi > image.size()) return;
    const attack::GadgetFinder finder(image.subspan(lo, hi - lo), hi - lo);
    const attack::GadgetCensus& c = finder.census();
    rep.census.ret_gadgets += c.ret_gadgets;
    rep.census.stk_move_gadgets += c.stk_move_gadgets;
    rep.census.write_mem_gadgets += c.write_mem_gadgets;
    rep.census.pop_chain_gadgets += c.pop_chain_gadgets;
    for (const attack::GadgetSite& site : finder.sites()) {
      add_gadget(lo + site.byte_addr,
                 FuncGadget{site.byte_addr, site.kind, site.pop_count}, -1);
    }
  };
  std::uint32_t cursor = 0;
  for (const toolchain::FunctionIndex::Entry& fn : index.entries()) {
    scan_gap(cursor, fn.start);
    cursor = std::max(cursor, fn.end);
  }
  scan_gap(cursor, blob.text_end);
  std::sort(rep.gadgets.begin(), rep.gadgets.end(),
            [](const RankedGadget& a, const RankedGadget& b) {
              return a.byte_addr != b.byte_addr
                         ? a.byte_addr < b.byte_addr
                         : static_cast<int>(a.kind) < static_cast<int>(b.kind);
            });
  for (const RankedGadget& g : rep.gadgets) {
    rep.weighted_total += g.weight;
    switch (g.kind) {
      case attack::GadgetKind::kRet: rep.weighted_ret += g.weight; break;
      case attack::GadgetKind::kStkMove:
        rep.weighted_stk_move += g.weight;
        break;
      case attack::GadgetKind::kWriteMem:
        rep.weighted_write_mem += g.weight;
        break;
    }
  }
  return rep;
}

Analyzer::Analyzer(AnalysisCache* cache, AnalyzeOptions options)
    : cache_(cache), options_(std::move(options)) {}

// --- Reports ----------------------------------------------------------------

namespace {

std::string hex_digest(const support::Sha256Digest& digest) {
  std::string out;
  out.reserve(64);
  for (std::uint8_t b : digest) out += fmt("%02x", b);
  return out;
}

}  // namespace

std::string report_text(const AnalysisReport& rep) {
  std::string out;
  out += fmt("image sha256=%s text_end=0x%x\n",
             hex_digest(rep.image_digest).c_str(), rep.text_end);
  out += fmt(
      "cfg functions=%u blocks=%u edges=%u call_edges=%u icall_sites=%u "
      "ijmp_sites=%u address_taken=%u\n",
      rep.n_functions, rep.n_blocks, rep.n_edges, rep.call_edges,
      rep.indirect_call_sites, rep.indirect_jump_sites, rep.address_taken);
  out += fmt("census ret=%u stk_move=%u write_mem=%u pop_chain=%u total=%u\n",
             rep.census.ret_gadgets, rep.census.stk_move_gadgets,
             rep.census.write_mem_gadgets, rep.census.pop_chain_gadgets,
             rep.census.total());
  out += fmt(
      "weighted total=%.6f ret=%.6f stk_move=%.6f write_mem=%.6f\n",
      rep.weighted_total, rep.weighted_ret, rep.weighted_stk_move,
      rep.weighted_write_mem);
  out += fmt("taint sources_reach=%u of %u functions\n",
             rep.tainted_functions, rep.n_functions);
  out += fmt("policy io_bounded=%u ret_bounded=%u\n", rep.io_bounded,
             rep.ret_bounded);
  for (std::size_t i = 0; i < rep.policy.functions.size(); ++i) {
    const detect::FuncPolicy& fp = rep.policy.functions[i];
    out += fmt("func %zu depth=%d io=%s ret_sites=%zu%s\n", i,
               i < rep.taint_depth.size() ? rep.taint_depth[i] : -1,
               fp.io_unbounded
                   ? "unbounded"
                   : fmt("%u", detect::io_bit_count(fp.io_allow)).c_str(),
               fp.ret_sites.size(), fp.ret_unbounded ? " (unbounded)" : "");
  }
  for (const RankedGadget& g : rep.gadgets) {
    out += fmt("gadget 0x%x kind=%s pops=%u func=%d depth=%d weight=%.6f\n",
               g.byte_addr, attack::gadget_kind_name(g.kind), g.pop_count,
               g.func, g.depth, g.weight);
  }
  return out;
}

std::string report_json(const AnalysisReport& rep) {
  std::string out = "{\n";
  out += fmt("  \"image_sha256\": \"%s\",\n",
             hex_digest(rep.image_digest).c_str());
  out += fmt("  \"text_end\": %u,\n", rep.text_end);
  out += fmt("  \"functions\": %u,\n", rep.n_functions);
  out += fmt("  \"blocks\": %u,\n", rep.n_blocks);
  out += fmt("  \"edges\": %u,\n", rep.n_edges);
  out += fmt("  \"call_edges\": %u,\n", rep.call_edges);
  out += fmt("  \"icall_sites\": %u,\n", rep.indirect_call_sites);
  out += fmt("  \"ijmp_sites\": %u,\n", rep.indirect_jump_sites);
  out += fmt("  \"address_taken\": %u,\n", rep.address_taken);
  out += fmt(
      "  \"census\": {\"ret\": %u, \"stk_move\": %u, \"write_mem\": %u, "
      "\"pop_chain\": %u, \"total\": %u},\n",
      rep.census.ret_gadgets, rep.census.stk_move_gadgets,
      rep.census.write_mem_gadgets, rep.census.pop_chain_gadgets,
      rep.census.total());
  out += fmt(
      "  \"weighted\": {\"total\": %.6f, \"ret\": %.6f, \"stk_move\": %.6f, "
      "\"write_mem\": %.6f},\n",
      rep.weighted_total, rep.weighted_ret, rep.weighted_stk_move,
      rep.weighted_write_mem);
  out += fmt("  \"tainted_functions\": %u,\n", rep.tainted_functions);
  out += fmt("  \"io_bounded\": %u,\n", rep.io_bounded);
  out += fmt("  \"ret_bounded\": %u,\n", rep.ret_bounded);
  out += fmt("  \"cache_hits\": %llu,\n",
             static_cast<unsigned long long>(rep.cache_hits));
  out += fmt("  \"cache_misses\": %llu,\n",
             static_cast<unsigned long long>(rep.cache_misses));
  out += "  \"gadgets\": [";
  for (std::size_t i = 0; i < rep.gadgets.size(); ++i) {
    const RankedGadget& g = rep.gadgets[i];
    out += fmt(
        "%s\n    {\"addr\": %u, \"kind\": \"%s\", \"pops\": %u, "
        "\"func\": %d, \"depth\": %d, \"weight\": %.6f}",
        i == 0 ? "" : ",", g.byte_addr, attack::gadget_kind_name(g.kind),
        g.pop_count, g.func, g.depth, g.weight);
  }
  out += "\n  ]\n}\n";
  return out;
}

}  // namespace mavr::analysis
