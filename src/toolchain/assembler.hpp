// Programmatic AVR assembler.
//
// The firmware generator builds functions through this API instead of
// parsing assembly text. Each FunctionBuilder produces a relocatable
// function block; the Linker lays blocks out, applies relaxation and
// call-prologue consolidation (the paper's §VI-B1 flag discussion), and
// emits the flat image.
//
// Local control flow (labels, branches) stays inside a block, so function
// blocks can be moved as units by the MAVR randomizer; only the recorded
// relocations (calls, jumps, data addresses) need link- or patch-time
// resolution.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "avr/instr.hpp"
#include "support/bytes.hpp"
#include "support/error.hpp"
#include "toolchain/encode.hpp"

namespace mavr::toolchain {

/// Opaque handle to a function-local label.
struct Label {
  int id = -1;
};

/// Link-time-constant immediates the linker substitutes into LDI during
/// emission (startup code needs the final data-section layout).
enum class LateImm : std::uint8_t {
  DataInitLo, DataInitMid, DataInitHi,  // flash byte address of .data image
  DataCountLo, DataCountHi,             // .data length in bytes
  RamBaseLo, RamBaseHi,                 // RAM destination of .data
  RamEndLo, RamEndHi,                   // initial stack pointer
};

namespace item {

/// Fully encoded instruction word(s) with no relocation.
struct Raw {
  std::uint16_t w;
};

/// Relaxable CALL/JMP to a global symbol (function start).
struct CallSym {
  std::string sym;
  bool is_call;  ///< true = call, false = tail jump
};

/// CALL/JMP into the *middle* of a symbol (cross-jumped epilogue tails,
/// prologue-blob entry points). Never relaxed; always the long form. These
/// are the "trampoline" targets that force the patcher's binary search
/// (paper §VI-B3).
struct JmpInto {
  std::string sym;
  std::uint32_t byte_offset;
  bool is_call;
};

/// LDS/STS whose 16-bit address is a data symbol (+offset) in RAM.
struct LdsSts {
  bool store;
  std::uint8_t reg;
  std::string sym;
  std::uint16_t offset;
};

/// LDI of the low or high byte of a data symbol's RAM address.
struct LdiData {
  std::uint8_t reg;
  std::string sym;
  std::uint16_t offset;
  bool high;
};

/// LDI of one byte (part 0=lo, 1=hi, 2=bits 16..23) of a *code* word
/// address (local label) — only produced by call-prologue lowering;
/// recorded in Image::ldi_code_pointers.
struct LdiPm {
  std::uint8_t reg;
  int label_id;
  std::uint8_t part;
};

/// LDI of a link-time-constant (startup code).
struct LdiLate {
  std::uint8_t reg;
  LateImm which;
};

/// Conditional branch to a local label (BRBS/BRBC, ±64 words).
struct LocalBranch {
  bool set;  ///< true = BRBS
  std::uint8_t bit;
  int label_id;
};

/// RJMP to a local label (±2K words).
struct LocalRjmp {
  int label_id;
};

/// Label definition point.
struct Bind {
  int label_id;
};

/// Function prologue: save registers, optionally allocate a stack frame and
/// establish Y as the frame pointer. Expanded by the linker per the
/// call-prologue option.
struct Prologue {
  std::vector<std::uint8_t> save_regs;  ///< callee-saved, ascending
  std::uint16_t frame_bytes;            ///< 0 = no frame/Y setup
};

/// Mirror image of Prologue, ending in RET.
struct Epilogue {
  std::vector<std::uint8_t> save_regs;
  std::uint16_t frame_bytes;
};

using Item = std::variant<Raw, CallSym, JmpInto, LdsSts, LdiData, LdiPm,
                          LdiLate, LocalBranch, LocalRjmp, Bind, Prologue,
                          Epilogue>;

}  // namespace item

/// One relocatable function block.
struct AsmFunction {
  std::string name;
  std::vector<item::Item> items;
  bool movable = true;
};

/// Builder for one function. Thin statically-typed wrappers over the
/// encoders; every method appends one item.
class FunctionBuilder {
 public:
  explicit FunctionBuilder(std::string name) { fn_.name = std::move(name); }

  AsmFunction take() { return std::move(fn_); }
  const std::string& name() const { return fn_.name; }

  // --- Labels ---------------------------------------------------------------
  Label make_label() { return Label{next_label_++}; }
  void bind(Label l) {
    MAVR_REQUIRE(l.id >= 0 && l.id < next_label_, "unknown label");
    put(item::Bind{l.id});
  }

  // --- Pseudo-ops -------------------------------------------------------------
  void prologue(std::vector<std::uint8_t> save_regs,
                std::uint16_t frame_bytes) {
    put(item::Prologue{std::move(save_regs), frame_bytes});
  }
  void epilogue(std::vector<std::uint8_t> save_regs,
                std::uint16_t frame_bytes) {
    put(item::Epilogue{std::move(save_regs), frame_bytes});
  }
  void call(std::string sym) { put(item::CallSym{std::move(sym), true}); }
  void jmp(std::string sym) { put(item::CallSym{std::move(sym), false}); }
  void jmp_into(std::string sym, std::uint32_t byte_offset) {
    put(item::JmpInto{std::move(sym), byte_offset, false});
  }
  void lds_sym(std::uint8_t rd, std::string sym, std::uint16_t offset = 0) {
    put(item::LdsSts{false, rd, std::move(sym), offset});
  }
  void sts_sym(std::string sym, std::uint8_t rr, std::uint16_t offset = 0) {
    put(item::LdsSts{true, rr, std::move(sym), offset});
  }
  void ldi_data(std::uint8_t rd, std::string sym, std::uint16_t offset,
                bool high) {
    put(item::LdiData{rd, std::move(sym), offset, high});
  }
  void ldi_late(std::uint8_t rd, LateImm which) {
    put(item::LdiLate{rd, which});
  }

  // --- Branches ----------------------------------------------------------------
  void brbs(std::uint8_t bit, Label l) { put(item::LocalBranch{true, bit, l.id}); }
  void brbc(std::uint8_t bit, Label l) { put(item::LocalBranch{false, bit, l.id}); }
  void breq(Label l) { brbs(avr::kZ, l); }
  void brne(Label l) { brbc(avr::kZ, l); }
  void brcs(Label l) { brbs(avr::kC, l); }
  void brcc(Label l) { brbc(avr::kC, l); }
  void brmi(Label l) { brbs(avr::kN, l); }
  void brpl(Label l) { brbc(avr::kN, l); }
  void brlt(Label l) { brbs(avr::kS, l); }
  void brge(Label l) { brbc(avr::kS, l); }
  void rjmp(Label l) { put(item::LocalRjmp{l.id}); }

  // --- Raw instructions ----------------------------------------------------------
  void raw(std::uint16_t w) { put(item::Raw{w}); }

  void ldi(std::uint8_t rd, std::uint8_t k) { raw(enc_imm(avr::Op::Ldi, rd, k)); }
  void cpi(std::uint8_t rd, std::uint8_t k) { raw(enc_imm(avr::Op::Cpi, rd, k)); }
  void subi(std::uint8_t rd, std::uint8_t k) { raw(enc_imm(avr::Op::Subi, rd, k)); }
  void sbci(std::uint8_t rd, std::uint8_t k) { raw(enc_imm(avr::Op::Sbci, rd, k)); }
  void andi(std::uint8_t rd, std::uint8_t k) { raw(enc_imm(avr::Op::Andi, rd, k)); }
  void ori(std::uint8_t rd, std::uint8_t k) { raw(enc_imm(avr::Op::Ori, rd, k)); }

  void add(std::uint8_t rd, std::uint8_t rr) { raw(enc_two_reg(avr::Op::Add, rd, rr)); }
  void adc(std::uint8_t rd, std::uint8_t rr) { raw(enc_two_reg(avr::Op::Adc, rd, rr)); }
  void sub(std::uint8_t rd, std::uint8_t rr) { raw(enc_two_reg(avr::Op::Sub, rd, rr)); }
  void sbc(std::uint8_t rd, std::uint8_t rr) { raw(enc_two_reg(avr::Op::Sbc, rd, rr)); }
  void and_(std::uint8_t rd, std::uint8_t rr) { raw(enc_two_reg(avr::Op::And, rd, rr)); }
  void or_(std::uint8_t rd, std::uint8_t rr) { raw(enc_two_reg(avr::Op::Or, rd, rr)); }
  void eor(std::uint8_t rd, std::uint8_t rr) { raw(enc_two_reg(avr::Op::Eor, rd, rr)); }
  void mov(std::uint8_t rd, std::uint8_t rr) { raw(enc_two_reg(avr::Op::Mov, rd, rr)); }
  void cp(std::uint8_t rd, std::uint8_t rr) { raw(enc_two_reg(avr::Op::Cp, rd, rr)); }
  void cpc(std::uint8_t rd, std::uint8_t rr) { raw(enc_two_reg(avr::Op::Cpc, rd, rr)); }
  void cpse(std::uint8_t rd, std::uint8_t rr) { raw(enc_two_reg(avr::Op::Cpse, rd, rr)); }
  void mul(std::uint8_t rd, std::uint8_t rr) { raw(enc_two_reg(avr::Op::Mul, rd, rr)); }
  void movw(std::uint8_t rd, std::uint8_t rr) { raw(enc_movw(rd, rr)); }

  void com(std::uint8_t rd) { raw(enc_one_reg(avr::Op::Com, rd)); }
  void neg(std::uint8_t rd) { raw(enc_one_reg(avr::Op::Neg, rd)); }
  void inc(std::uint8_t rd) { raw(enc_one_reg(avr::Op::Inc, rd)); }
  void dec(std::uint8_t rd) { raw(enc_one_reg(avr::Op::Dec, rd)); }
  void swap(std::uint8_t rd) { raw(enc_one_reg(avr::Op::Swap, rd)); }
  void asr(std::uint8_t rd) { raw(enc_one_reg(avr::Op::Asr, rd)); }
  void lsr(std::uint8_t rd) { raw(enc_one_reg(avr::Op::Lsr, rd)); }
  void ror(std::uint8_t rd) { raw(enc_one_reg(avr::Op::Ror, rd)); }

  void adiw(std::uint8_t rd, std::uint8_t k) { raw(enc_adiw(avr::Op::Adiw, rd, k)); }
  void sbiw(std::uint8_t rd, std::uint8_t k) { raw(enc_adiw(avr::Op::Sbiw, rd, k)); }

  void in(std::uint8_t rd, std::uint8_t io_addr) { raw(enc_in(rd, io_addr)); }
  void out(std::uint8_t io_addr, std::uint8_t rr) { raw(enc_out(io_addr, rr)); }
  void push(std::uint8_t rr) { raw(enc_push(rr)); }
  void pop(std::uint8_t rd) { raw(enc_pop(rd)); }

  void lds(std::uint8_t rd, std::uint16_t addr) {
    auto [a, b] = enc_lds(rd, addr);
    raw(a);
    raw(b);
  }
  void sts(std::uint16_t addr, std::uint8_t rr) {
    auto [a, b] = enc_sts(addr, rr);
    raw(a);
    raw(b);
  }
  void ldd_y(std::uint8_t rd, std::uint8_t q) { raw(enc_ldd(rd, true, q)); }
  void ldd_z(std::uint8_t rd, std::uint8_t q) { raw(enc_ldd(rd, false, q)); }
  void std_y(std::uint8_t q, std::uint8_t rr) { raw(enc_std(true, q, rr)); }
  void std_z(std::uint8_t q, std::uint8_t rr) { raw(enc_std(false, q, rr)); }
  void ld_x(std::uint8_t rd) { raw(enc_ld_st(avr::Op::LdX, rd)); }
  void ld_x_inc(std::uint8_t rd) { raw(enc_ld_st(avr::Op::LdXInc, rd)); }
  void ld_y_inc(std::uint8_t rd) { raw(enc_ld_st(avr::Op::LdYInc, rd)); }
  void ld_z_inc(std::uint8_t rd) { raw(enc_ld_st(avr::Op::LdZInc, rd)); }
  void st_x(std::uint8_t rr) { raw(enc_ld_st(avr::Op::StX, rr)); }
  void st_x_inc(std::uint8_t rr) { raw(enc_ld_st(avr::Op::StXInc, rr)); }
  void st_y_inc(std::uint8_t rr) { raw(enc_ld_st(avr::Op::StYInc, rr)); }
  void st_z_inc(std::uint8_t rr) { raw(enc_ld_st(avr::Op::StZInc, rr)); }
  void lpm(std::uint8_t rd) { raw(enc_lpm(avr::Op::Lpm, rd)); }
  void lpm_inc(std::uint8_t rd) { raw(enc_lpm(avr::Op::LpmInc, rd)); }
  void elpm_inc(std::uint8_t rd) { raw(enc_lpm(avr::Op::ElpmInc, rd)); }

  void sbi(std::uint8_t io_addr, std::uint8_t bit) { raw(enc_sbi_cbi(avr::Op::Sbi, io_addr, bit)); }
  void cbi(std::uint8_t io_addr, std::uint8_t bit) { raw(enc_sbi_cbi(avr::Op::Cbi, io_addr, bit)); }
  void sbic(std::uint8_t io_addr, std::uint8_t bit) { raw(enc_skip_io(avr::Op::Sbic, io_addr, bit)); }
  void sbis(std::uint8_t io_addr, std::uint8_t bit) { raw(enc_skip_io(avr::Op::Sbis, io_addr, bit)); }
  void sbrc(std::uint8_t reg, std::uint8_t bit) { raw(enc_skip_reg(avr::Op::Sbrc, reg, bit)); }
  void sbrs(std::uint8_t reg, std::uint8_t bit) { raw(enc_skip_reg(avr::Op::Sbrs, reg, bit)); }
  void bst(std::uint8_t rd, std::uint8_t bit) { raw(enc_bst_bld(avr::Op::Bst, rd, bit)); }
  void bld(std::uint8_t rd, std::uint8_t bit) { raw(enc_bst_bld(avr::Op::Bld, rd, bit)); }

  void ret() { raw(enc_no_operand(avr::Op::Ret)); }
  void icall() { raw(enc_no_operand(avr::Op::Icall)); }
  void eicall() { raw(enc_no_operand(avr::Op::Eicall)); }
  void ijmp() { raw(enc_no_operand(avr::Op::Ijmp)); }
  void eijmp() { raw(enc_no_operand(avr::Op::Eijmp)); }
  void nop() { raw(enc_no_operand(avr::Op::Nop)); }
  void break_() { raw(enc_no_operand(avr::Op::Break)); }
  void wdr() { raw(enc_no_operand(avr::Op::Wdr)); }
  void sleep() { raw(enc_no_operand(avr::Op::Sleep)); }

  /// Word offset of a label from function start, valid only when every item
  /// before the bind point has a fixed size (no relaxable calls, no
  /// prologue pseudos). Used by the generator to create mid-function code
  /// pointers for dispatch tables. Throws when the offset is not fixed.
  std::uint32_t fixed_offset_of(Label l) const;

 private:
  void put(item::Item it) { fn_.items.push_back(std::move(it)); }

  AsmFunction fn_;
  int next_label_ = 0;
};

/// A code pointer stored in a data table: function start plus byte offset.
struct CodeRef {
  std::string sym;
  std::uint32_t byte_offset = 0;
};

namespace data {

/// One data-section entry.
struct Entry {
  std::string name;
  support::Bytes init;                ///< initialized payload (may be zeros)
  /// Code pointers at given byte offsets inside `init` (2-byte LE word
  /// addresses, resolved at link time and re-resolved by the patcher).
  std::vector<std::pair<std::uint16_t, CodeRef>> code_ptrs;
};

}  // namespace data

/// Builder for the RAM data section. Addresses are assigned sequentially
/// from the MCU's SRAM base — fixed across randomizations, which is why
/// LDS/STS never need patching (paper §V-B2 moves only function blocks).
class DataBuilder {
 public:
  /// Zero-initialized space of `size` bytes; returns nothing useful yet —
  /// addresses are assigned by the linker in insertion order.
  void reserve(std::string name, std::uint16_t size) {
    entries_.push_back({std::move(name), support::Bytes(size, 0), {}});
  }

  /// Initialized global.
  void global(std::string name, support::Bytes init) {
    entries_.push_back({std::move(name), std::move(init), {}});
  }

  /// Table of *far* code pointers (function dispatch table / vtable
  /// analogue — the structures the paper's preprocessor scans for,
  /// §VI-B2). Entries are 4 bytes apart: LE low word, bits-16..23 byte,
  /// one pad byte.
  void code_ptr_table(std::string name, std::vector<CodeRef> refs) {
    data::Entry entry;
    entry.name = std::move(name);
    entry.init.resize(refs.size() * 4, 0);
    for (std::size_t i = 0; i < refs.size(); ++i) {
      entry.code_ptrs.emplace_back(static_cast<std::uint16_t>(i * 4),
                                   std::move(refs[i]));
    }
    entries_.push_back(std::move(entry));
  }

  const std::vector<data::Entry>& entries() const { return entries_; }
  std::vector<data::Entry> take() { return std::move(entries_); }

 private:
  std::vector<data::Entry> entries_;
};

}  // namespace mavr::toolchain
