// Superblock translation tier above the per-word decode cache.
//
// A superblock is a run of pre-resolved micro-ops that spans control
// flow the translator can follow — static jumps fold away, static calls
// inline their callees, a RET whose call was followed in the same block
// becomes a predicted continuation, and conditional branches become
// mid-block exits — ending at a dynamic transfer, an SREG-wholesale
// write, the size cap, or an instruction the translator cannot prove
// side-effect-free against the I/O bus (the dispatch map is resolved at
// translate time, so unclaimed I/O-region accesses compile to plain RAM
// moves). A peephole pass then fuses adjacent pure-op pairs into single
// dispatches. The executor (Cpu::run_tier in cpu.cpp) runs a block with
// PC, the cycle counter and SREG in locals and only re-enters the
// interpreter — one cycle-exact single step — at block boundaries that
// need it: an interrupt is pending, an accessed address is
// device-dispatched, the stack leaves plain RAM, or the run/tick
// deadline would fall inside the block.
//
// Translations are keyed to ProgramMemory::generation() and
// IoBus::handler_generation(): every reflash (chip erase, page program,
// last-known-good fallback) bumps the flash generation, and the cache
// invalidates by bumping an epoch tag rather than clearing the per-word
// map — O(1) per reflash, which matters because the MAVR defense
// reprograms flash constantly. A handler registered after translation
// invalidates the same way, so statically-resolved dispatch never goes
// stale.
#pragma once

#include <cstdint>
#include <vector>

#include "avr/memory.hpp"
#include "support/zero_pages.hpp"

namespace mavr::avr {

// --- The op lists --------------------------------------------------------
// One list per shape of straight-line op. Each entry names an Op whose
// architectural effect has exactly one definition in cpu.cpp (ex_<name>),
// called by both the interpreter (Cpu::step_impl) and the tier
// (Cpu::run_tier); the lists generate the interpreter's cases, the
// straight-line TierOpKinds (k<name>), the translator's Op -> kind mapping
// and the tier's dispatch table, so the three cannot fall out of step.

/// Register and immediate ops: ex_<name>(ram, sreg, Rd, B, K) -> new SREG,
/// where B is the Instr field named in the last column. X(name, cycles, B)
#define MAVR_AVR_REG_OPS(X)                                                \
  X(Add, 1, rr) X(Adc, 1, rr) X(Sub, 1, rr) X(Sbc, 1, rr) X(And, 1, rr)    \
  X(Or, 1, rr) X(Eor, 1, rr) X(Mov, 1, rr) X(Movw, 1, rr) X(Mul, 2, rr)    \
  X(Cp, 1, rr) X(Cpc, 1, rr) X(Ldi, 1, rr) X(Subi, 1, rr) X(Sbci, 1, rr)   \
  X(Andi, 1, rr) X(Ori, 1, rr) X(Cpi, 1, rr) X(Com, 1, rr) X(Neg, 1, rr)   \
  X(Inc, 1, rr) X(Dec, 1, rr) X(Swap, 1, rr) X(Asr, 1, rr) X(Lsr, 1, rr)   \
  X(Ror, 1, rr) X(Adiw, 2, rr) X(Sbiw, 2, rr) X(Bset, 1, bit)              \
  X(Bclr, 1, bit) X(Bst, 1, bit) X(Bld, 1, bit)

/// Memory ops: ex_<name>(ram, mem, Rd, K) -> false when the memory
/// discipline `mem` refused the address before anything changed (the
/// tier's plain-RAM guard; the interpreter admits every address).
/// X(name, cycles)
#define MAVR_AVR_MEM_OPS(X)                                                \
  X(LdX, 2) X(LdXInc, 2) X(LdXDec, 2) X(LdYInc, 2) X(LdYDec, 2)            \
  X(LddY, 2) X(LdZInc, 2) X(LdZDec, 2) X(LddZ, 2) X(StX, 2) X(StXInc, 2)   \
  X(StXDec, 2) X(StYInc, 2) X(StYDec, 2) X(StdY, 2) X(StZInc, 2)           \
  X(StZDec, 2) X(StdZ, 2) X(LpmR0, 3) X(Lpm, 3) X(LpmInc, 3)               \
  X(ElpmR0, 3) X(Elpm, 3) X(ElpmInc, 3) X(Push, 2) X(Pop, 2)

/// Tier-only straight-line kinds, mapped by the translator from the
/// operand (static data address, dispatch map):
///  * kNop: NOP/SLEEP/WDR/SPM and followed RJMP/JMP (the pc move is folded
///    into translation);
///  * kLdsRam/kStsRam: LDS/STS/IN/OUT of a byte with no device behind it;
///  * kLdsLow/kStsLow: the same with a device handler (run through the bus
///    and retired as the block's last op);
///  * kLdsSreg: LDS/IN of SREG, which the executor caches in a register;
///  * kSbi/kCbi;
///  * kCallPush: RCALL/CALL with a followed static target — pushes the
///    return address (target2) and the callee body continues the block.
#define MAVR_TIER_ONLY_KINDS(X)                                            \
  X(Nop) X(LdsRam) X(StsRam) X(LdsLow) X(StsLow) X(LdsSreg) X(Sbi) X(Cbi)  \
  X(CallPush)

/// Fused pairs: two adjacent plain-RAM moves or register ops, chosen from
/// measured pair frequencies in the generated firmware (16-bit idioms
/// dominate: lds/lds, add/adc, subi/sbci, asr/ror). The peephole retags the
/// first op with the pair's kind and leaves the second in place; the
/// handler runs both ops' own definitions in one dispatch and steps past
/// the second. Both halves are side-effect-free against the I/O bus, so a
/// pair never exits between them. X(name, first, second)
#define MAVR_TIER_FUSED_PAIRS(X)                                           \
  X(Lds2, LdsRam, LdsRam) X(Sts2, StsRam, StsRam) X(Ldi2, Ldi, Ldi)        \
  X(LdiAdd, Ldi, Add) X(LdsAdd, LdsRam, Add) X(LdsSub, LdsRam, Sub)        \
  X(AddSts, Add, StsRam) X(RorLdi, Ror, Ldi) X(AddAdc, Add, Adc)           \
  X(AddAdd, Add, Add) X(SubSbc, Sub, Sbc) X(SubiSbci, Subi, Sbci)          \
  X(AsrRor, Asr, Ror) X(RorAsr, Ror, Asr) X(LdsSts, LdsRam, StsRam)        \
  X(StsLds, StsRam, LdsRam)

/// Block exits.
///  * kCond*: conditional mid-block exits. The not-taken path continues
///    inside the block (its 1-cycle cost is folded into the next op's
///    prefix sum); the taken path leaves through the full block exit.
///  * kCondRet: a RET whose matching call was followed earlier in the same
///    block. It pops and compares against the translate-time return
///    address (target): a match continues in-block (leaf calls inline
///    away), a mismatch leaves with the popped destination.
///  * kTerm*: terminators, exactly one per block, always the last op.
///    kTermBsetI (SEI) and kTermOutSreg (OUT 0x3F, a wholesale SREG write)
///    end the block so the IRQ poll runs right after them; kTermFall is a
///    pseudo-exit at the size cap or before an untranslatable op.
#define MAVR_TIER_EXIT_KINDS(X)                                            \
  X(CondBrbs) X(CondBrbc) X(CondCpse) X(CondSbrc) X(CondSbrs) X(CondSbic)  \
  X(CondSbis) X(CondRet) X(TermIjmp) X(TermEijmp) X(TermIcall)             \
  X(TermEicall) X(TermRet) X(TermReti) X(TermBsetI) X(TermOutSreg)         \
  X(TermFall)

/// Every kind, in TierOpKind order (the executor's dispatch table is
/// generated from this, so the enum stays dense).
#define MAVR_TIER_ALL_KINDS(X)                                             \
  MAVR_AVR_REG_OPS(X) MAVR_AVR_MEM_OPS(X) MAVR_TIER_ONLY_KINDS(X)          \
  MAVR_TIER_FUSED_PAIRS(X) MAVR_TIER_EXIT_KINDS(X)

/// Micro-op opcodes.
enum class TierOpKind : std::uint8_t {
#define MAVR_TIER_KIND(name, ...) k##name,
  MAVR_TIER_ALL_KINDS(MAVR_TIER_KIND)
#undef MAVR_TIER_KIND
};

inline constexpr std::size_t kTierOpKinds =
    static_cast<std::size_t>(TierOpKind::kTermFall) + 1;

/// One pre-resolved micro-op. `pc_abs`/`cyc_before` give the exact
/// architectural PC and cycle count at this op's boundary, so a side
/// exit can hand the untouched instruction to the interpreter.
struct TierOp {
  TierOpKind kind = TierOpKind::kNop;
  std::uint8_t a = 0;        ///< destination register / primary operand
  std::uint8_t b = 0;        ///< source register or bit index
  std::uint8_t cyc = 0;      ///< terminator taken-path cycles
  std::uint16_t k = 0;       ///< immediate / absolute data-space address
  std::uint16_t ins_before = 0;  ///< instructions retired by earlier ops
  std::uint32_t pc_abs = 0;  ///< word address of the source instruction
  std::uint32_t cyc_before = 0;  ///< cycles retired by earlier ops in block
  std::uint32_t target = 0;      ///< taken/static target (pre-masked words)
  std::uint32_t target2 = 0;     ///< fall-through / pushed return address
};

struct TierBlock {
  std::uint32_t first_op = 0;  ///< index into SuperblockCache::arena
  std::uint32_t num_ops = 0;   ///< including the terminator
  std::uint32_t head_pc = 0;
  std::uint32_t worst_cycles = 0;  ///< upper bound incl. taken terminator
  bool interp_only = false;  ///< head untranslatable: single-step instead
};

/// Counters for the bench layer and the invalidation regression tests.
struct TierStats {
  std::uint64_t blocks_translated = 0;
  std::uint64_t invalidations = 0;   ///< epoch bumps from reflash
  std::uint64_t blocks_executed = 0;
  std::uint64_t block_instructions = 0;  ///< retired inside superblocks
  std::uint64_t side_exits = 0;
  std::uint64_t io_dispatches = 0;  ///< device-handled accesses run in-tier
  std::uint64_t interp_steps = 0;  ///< cycle-exact single-step fallbacks
  std::uint64_t fused_pairs = 0;  ///< pairs retagged by the peephole
};

/// Translation cache: one map slot per flash word holding an epoch-tagged
/// block index. Stale epochs read as "not translated", so invalidation
/// never walks the map. The map sits on zero pages: a zero slot carries
/// epoch 0, which never matches (epochs start at 1 and only grow), so a
/// cache pays only for the map pages its block heads touch.
class SuperblockCache {
 public:
  /// Sizes the map on first use and invalidates when the flash generation
  /// moved (any bootloader erase/program since the last run) or a new I/O
  /// handler was registered (translation resolves the dispatch map
  /// statically, so a later registration must retranslate).
  void sync(const ProgramMemory& flash, std::uint64_t io_handler_gen);

  /// Translates the superblock headed at `head_pc` and registers it in the
  /// map. `dispatch` is the I/O bus dispatch-flag map, resolved statically
  /// (sync() invalidates on any later handler registration). Returns a
  /// reference valid until the next translate()/sync().
  const TierBlock& translate(const ProgramMemory& flash,
                             const std::uint8_t* dispatch,
                             std::uint32_t head_pc, std::uint32_t pc_mask,
                             std::uint32_t data_size,
                             std::uint8_t push_bytes);

  /// Back to the observable state of a new cache: no blocks, zero stats.
  /// The epoch moves on (never back), so every slot left in the map from
  /// before reads as untranslated; the map keeps its pages.
  void power_on() {
    blocks.clear();
    arena.clear();
    ++epoch;
    stats = TierStats{};
  }

  std::vector<TierOp> arena;
  std::vector<TierBlock> blocks;
  support::ZeroPages<std::uint64_t> map;
  std::uint64_t epoch = 1;
  std::uint64_t generation = ~std::uint64_t{0};
  std::uint64_t handler_generation = ~std::uint64_t{0};
  TierStats stats;
};

}  // namespace mavr::avr
