// The AVR CPU interpreter: fetch/decode/execute with cycle accounting.
//
// Faithfulness notes that the paper's attacks depend on:
//  * SP, SREG, EIND and the register file live in the data space, so OUT
//    0x3D/0x3E rewrites the stack pointer (stk_move gadget, Fig. 4) and STD
//    Y+q can write anywhere including registers (write_mem gadget, Fig. 5);
//  * CALL/RCALL/ICALL push a 3-byte return address on the ATmega2560
//    (17-bit word PC), stored big-endian toward ascending addresses — the
//    exact layout the ROP payload builder emits;
//  * an invalid opcode faults the core, modelling the "board executes
//    garbage and becomes inoperable" failure the master processor detects.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "avr/decode.hpp"
#include "avr/instr.hpp"
#include "avr/io.hpp"
#include "avr/mcu.hpp"
#include "avr/memory.hpp"
#include "avr/tier.hpp"
#include "support/zero_pages.hpp"

namespace mavr::avr {

enum class CpuState {
  Running,   ///< executing normally
  Faulted,   ///< hit an invalid opcode (garbage execution crashed)
  Stopped,   ///< executed BREAK (used by firmware test stubs to halt)
};

/// Details of the fault that stopped the core.
struct FaultInfo {
  std::uint32_t pc_words = 0;   ///< word address of the faulting fetch
  std::uint16_t opcode = 0;     ///< first opcode word
  std::string reason;
  std::uint64_t cycle = 0;      ///< cycle count when the fault hit
  /// Forensics for smashed-stack diagnosis: the *raw* (unmasked) target of
  /// the most recent RET/RETI before the fault. The architectural PC always
  /// wraps through pc_mask_, so without this a wild return from a corrupted
  /// stack is indistinguishable from a legitimate in-range return.
  std::uint32_t last_ret_raw_words = 0;
  bool last_ret_wrapped = false;  ///< raw target had bits above pc_mask_
};

class Cpu;

/// Observation hooks invoked from Cpu::step() while a tracer is installed.
///
/// The disabled path costs exactly one branch on a null pointer per step;
/// when enabled, step() switches to an instrumented instantiation of the
/// interpreter loop, so the hooks below fire with zero cost added to the
/// untraced build.
///
/// Hook timing: on_load/on_store/on_call/on_ret fire *during* the
/// instruction (the Cpu still shows the pre-advance PC); on_sp_change fires
/// after the executing instruction's data effects but before the PC
/// advances; on_retire fires after the instruction fully completes;
/// on_irq fires after the vector dispatch pushed the return address.
class Tracer {
 public:
  virtual ~Tracer() = default;

  /// One instruction retired. `pc_words` addresses the retired instruction;
  /// the Cpu reflects post-execution state.
  virtual void on_retire(const Cpu& cpu, std::uint32_t pc_words,
                         const Instr& instr, std::uint32_t cycles) {
    (void)cpu, (void)pc_words, (void)instr, (void)cycles;
  }
  /// CALL/RCALL/ICALL/EICALL edge (after the return address was pushed).
  virtual void on_call(const Cpu& cpu, std::uint32_t from_words,
                       std::uint32_t to_words, std::uint32_t ret_words) {
    (void)cpu, (void)from_words, (void)to_words, (void)ret_words;
  }
  /// RET/RETI edge. `raw_words` is the popped target before PC masking —
  /// on a smashed stack it can exceed the flash (to_words is the wrapped
  /// address actually executed).
  virtual void on_ret(const Cpu& cpu, std::uint32_t from_words,
                      std::uint32_t to_words, std::uint32_t raw_words,
                      bool reti) {
    (void)cpu, (void)from_words, (void)to_words, (void)raw_words, (void)reti;
  }
  /// Interrupt accepted: vector `slot` dispatched, return address pushed.
  virtual void on_irq(const Cpu& cpu, std::uint8_t slot,
                      std::uint32_t from_words) {
    (void)cpu, (void)slot, (void)from_words;
  }
  /// SP changed during the last instruction (push/pop/call/ret or a direct
  /// store to SPL/SPH — the paper's stk_move pivot shows up here).
  virtual void on_sp_change(const Cpu& cpu, std::uint16_t old_sp,
                            std::uint16_t new_sp) {
    (void)cpu, (void)old_sp, (void)new_sp;
  }
  /// Data-space load performed by the program (LD/LDS/LDD/IN/SBIC/SBIS).
  virtual void on_load(const Cpu& cpu, std::uint32_t addr,
                       std::uint8_t value) {
    (void)cpu, (void)addr, (void)value;
  }
  /// Data-space store performed by the program (ST/STS/STD/OUT/SBI/CBI).
  virtual void on_store(const Cpu& cpu, std::uint32_t addr,
                        std::uint8_t value) {
    (void)cpu, (void)addr, (void)value;
  }
  /// The core faulted (invalid opcode). `info` includes the raw target of
  /// the most recent return for smashed-stack forensics.
  virtual void on_fault(const Cpu& cpu, const FaultInfo& info) {
    (void)cpu, (void)info;
  }
};

/// One simulated AVR core with its Harvard memories and I/O bus.
class Cpu {
 public:
  explicit Cpu(const McuSpec& spec);

  const McuSpec& spec() const { return spec_; }

  /// Power-on/reset: PC=0, SP=RAMEND, SREG=0, data memory cleared.
  /// Flash contents are preserved (reset is not reprogramming), and the
  /// cycle counter keeps running: peripherals share the timeline.
  void reset();

  /// Returns a used core to the state of a freshly constructed one: flash
  /// erased, EEPROM blank, cycle/retired/interrupt counters and tier stats
  /// zero, tracer detached, tier on, bus clock at zero, then reset().
  /// Unlike reset() this restarts the shared timeline, so the owner must
  /// first return its devices (whose deadlines the bus re-reads) to their
  /// own power-on state. Device registrations and interrupt lines stay.
  /// The flash erase moves the generation forward, which is what retires
  /// every cached decode and translation; neither cache is rewound.
  void power_on();

  CpuState state() const { return state_; }
  const FaultInfo& fault() const { return fault_; }

  /// Executes one instruction (no-op unless Running).
  void step();

  /// Runs until the core leaves Running or `cycle_budget` cycles elapse.
  /// Returns the number of cycles consumed.
  std::uint64_t run(std::uint64_t cycle_budget);

  // --- Architectural state -------------------------------------------------
  // Register file, SP and SREG live at fixed data-space addresses far below
  // the data-space end, so these accessors go straight at the backing store
  // (no wrap check, no device dispatch — matching the old raw() semantics).
  std::uint8_t reg(unsigned index) const { return ram_[index]; }
  void set_reg(unsigned index, std::uint8_t value) { ram_[index] = value; }

  /// 16-bit register pair (X: lo=26, Y: lo=28, Z: lo=30).
  std::uint16_t reg_pair(unsigned lo) const {
    return static_cast<std::uint16_t>(reg(lo) | (reg(lo + 1) << 8));
  }
  void set_reg_pair(unsigned lo, std::uint16_t value) {
    set_reg(lo, static_cast<std::uint8_t>(value & 0xFF));
    set_reg(lo + 1, static_cast<std::uint8_t>(value >> 8));
  }

  std::uint16_t sp() const {
    return static_cast<std::uint16_t>(ram_[kAddrSpl] | (ram_[kAddrSph] << 8));
  }
  void set_sp(std::uint16_t value) {
    ram_[kAddrSpl] = static_cast<std::uint8_t>(value & 0xFF);
    ram_[kAddrSph] = static_cast<std::uint8_t>(value >> 8);
  }

  std::uint8_t sreg() const { return ram_[kAddrSreg]; }
  void set_sreg(std::uint8_t value) { ram_[kAddrSreg] = value; }
  bool flag(SregBit bit) const { return (sreg() >> bit) & 1; }

  /// Program counter in words.
  std::uint32_t pc() const { return pc_; }
  void set_pc(std::uint32_t word_addr) { pc_ = word_addr & pc_mask_; }

  std::uint64_t cycles() const { return cycles_; }
  std::uint64_t instructions_retired() const { return retired_; }

  ProgramMemory& flash() { return flash_; }
  const ProgramMemory& flash() const { return flash_; }
  DataMemory& data() { return data_; }
  const DataMemory& data() const { return data_; }
  Eeprom& eeprom() { return eeprom_; }
  IoBus& io() { return io_; }

  /// Interrupt-line query: must return true when an interrupt is pending
  /// and clear it (hardware ack). A plain function pointer + context pair
  /// rather than std::function — the poll sits on the interrupt-latency
  /// path and must not cost a type-erased dispatch per pending check.
  using IrqTakeFn = bool (*)(void* ctx);

  /// Registers an interrupt source on `vector_slot` (slot k dispatches
  /// through the 2-word vector at word address 2k). `take(ctx)` must
  /// return true when an interrupt is pending and clear it (hardware
  /// ack). Delivery follows AVR semantics: only with SREG.I set, between
  /// instructions; the return address is pushed and I is cleared.
  ///
  /// Lines are polled while the bus's interrupt hint is up (see
  /// IoBus::raise_irq). Devices raising pending state mid-run must raise
  /// the hint; state flipped from outside the simulation loop is covered
  /// by the unconditional re-raise at step()/run() entry.
  void set_irq_line(std::uint8_t vector_slot, IrqTakeFn take, void* ctx);

  /// Interrupts delivered since power-on.
  std::uint64_t interrupts_taken() const { return interrupts_taken_; }

  /// Installs (or clears, with nullptr) the observation hooks. The Cpu does
  /// not own the tracer; it must outlive the attachment. With no tracer the
  /// interpreter runs a hook-free instantiation — the only residual cost is
  /// one null check per run()/step() entry.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }
  Tracer* tracer() const { return tracer_; }

  /// Raw (unmasked) target of the most recent RET/RETI, for smashed-stack
  /// forensics; see FaultInfo::last_ret_raw_words.
  std::uint32_t last_ret_raw_words() const { return last_ret_raw_words_; }
  bool last_ret_wrapped() const { return last_ret_wrapped_; }

  /// Enables/disables the superblock execution tier for untraced run()s
  /// (default on). Bit-identical to the interpreter either way — the
  /// toggle exists for benchmarking and for pinning that equivalence.
  /// Attaching a tracer transparently demotes run() to the traced
  /// interpreter regardless of this setting; step() always interprets.
  void set_exec_tier(bool on) { exec_tier_ = on; }
  bool exec_tier() const { return exec_tier_; }

  /// Translation/invalidation/fallback counters (bench + regression tests).
  const TierStats& tier_stats() const { return tier_.stats; }

 private:
  /// The interpreter loop. Executes one instruction when `single`, else
  /// runs until the core leaves Running or `deadline` (absolute cycles) is
  /// crossed. Holding the loop inside one function keeps the hot counters
  /// (PC, cycle count, retire count) in registers across instructions.
  template <bool kTraced>
  void step_impl(std::uint64_t deadline, bool single);
  /// Superblock dispatch loop: executes translated blocks until the
  /// deadline, falling back to single cycle-exact step_impl() calls at
  /// every boundary the tier cannot prove equivalent (pending interrupt,
  /// device-dispatched access, deadline inside the block, untranslatable
  /// head). See DESIGN.md §16 for the fallback contract.
  void run_tier(std::uint64_t deadline);
  /// Interrupt delivery shared by the interpreter loop and the tier
  /// dispatcher — one definition, so delivery timing cannot diverge.
  /// Caller guarantees flag(kI) && io_.irq_hint() && !irq_lines_.empty().
  template <bool kTraced>
  void poll_irq_lines(std::uint32_t& pc, std::uint64_t& cycles);
  template <bool kTraced>
  std::uint8_t load_mem(std::uint32_t addr);
  template <bool kTraced>
  void store_mem(std::uint32_t addr, std::uint8_t value);
  const Instr& decoded(std::uint32_t word_addr);
  void fill_decode_slot(std::uint32_t word_addr);
  void sync_decode_cache();
  /// The interpreter's memory discipline for the shared op definitions.
  template <bool kTraced>
  struct Bus;
  void push_byte(std::uint8_t value);
  std::uint8_t pop_byte();
  void push_pc(std::uint32_t ret_words);
  std::uint32_t pop_pc();
  /// Notes a RET/RETI target for last_ret_raw_words().
  void record_ret(std::uint32_t raw);
  std::uint32_t skip_target(std::uint32_t next_pc) const;
  void fault_now(std::uint32_t pc_words, std::uint16_t opcode,
                 std::string reason);

  const McuSpec& spec_;
  IoBus io_;
  ProgramMemory flash_;
  DataMemory data_;
  Eeprom eeprom_;
  /// Borrowed pointer at data_'s backing store (stable; see raw_data()).
  std::uint8_t* ram_;
  /// Cached spec fields, so the hot path avoids re-reading through spec_.
  std::uint32_t data_size_;
  std::uint8_t push_bytes_;

  std::uint32_t pc_ = 0;
  std::uint32_t pc_mask_;
  std::uint64_t cycles_ = 0;
  std::uint64_t retired_ = 0;
  std::uint64_t interrupts_taken_ = 0;
  CpuState state_ = CpuState::Running;
  FaultInfo fault_;
  Tracer* tracer_ = nullptr;
  std::uint32_t last_ret_raw_words_ = 0;
  bool last_ret_wrapped_ = false;

  struct IrqLine {
    std::uint8_t slot;
    IrqTakeFn take;
    void* ctx;
  };
  std::vector<IrqLine> irq_lines_;

  /// Superblock tier (see tier.hpp). The map allocates lazily on the
  /// first untraced run(), so traced/step-driven cores never pay for it.
  SuperblockCache tier_;
  bool exec_tier_ = true;

  // Decode cache, one entry per flash word; size_words == 0 marks a slot
  // as not-yet-decoded (every real decode yields 1 or 2). Re-synced to the
  // flash generation at run()/step() entry rather than per instruction —
  // flash can only be reprogrammed from outside the interpreter loop (SPM
  // is modelled as a no-op). The table sits on zero pages (an all-zero
  // Instr is the undecoded sentinel), and a resync clears only the slots
  // listed in decoded_words_, so neither construction nor a reflash walks
  // the whole 2 MB.
  support::ZeroPages<Instr> cache_;
  std::vector<std::uint32_t> decoded_words_;
  std::uint64_t cache_generation_ = ~std::uint64_t{0};
};

}  // namespace mavr::avr
