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

/// Micro-op opcodes. Straight-line kinds first, terminators after
/// kFirstTerminator; the executor's dispatch table is indexed by this
/// value, so the enum must stay dense.
enum class TierOpKind : std::uint8_t {
  // Two-register / immediate ALU.
  kAdd, kAdc, kSub, kSbc, kAnd, kOr, kEor, kMov, kMovw, kMul,
  kCp, kCpc, kLdi, kSubi, kSbci, kAndi, kOri, kCpi,
  // One-register ALU and SREG bit ops (kBset never carries bit I — that
  // encoding terminates the block so interrupt delivery stays exact).
  kCom, kNeg, kInc, kDec, kSwap, kAsr, kLsr, kRor, kAdiw, kSbiw,
  kBset, kBclr, kBst, kBld, kNop,
  // Static-address data transfer. kLdsRam/kStsRam target plain SRAM;
  // the *Low variants sit inside the I/O region and test the dispatch
  // map at run time (side-exit when a device handles the address).
  kLdsRam, kStsRam, kLdsLow, kStsLow, kLdsSreg,
  kIn, kInSreg, kOut,
  kSbi, kCbi,
  // Pointer-addressed data transfer: address computed, then guarded
  // against the plain-RAM window before any architectural state moves.
  kLdX, kLdXInc, kLdXDec, kLdYInc, kLdYDec, kLddY, kLdZInc, kLdZDec, kLddZ,
  kStX, kStXInc, kStXDec, kStYInc, kStYDec, kStdY, kStZInc, kStZDec, kStdZ,
  kLpmR0, kLpm, kLpmInc, kElpmR0, kElpm, kElpmInc,
  kPush, kPop,
  // RCALL/CALL with a followed static target: pushes the return address
  // (target2) and falls through — the callee body continues the block.
  kCallPush,
  // Fused pairs: two adjacent pure ops (plain-RAM moves, register ALU)
  // merged by the translator's peephole pass into one dispatch. Chosen
  // from measured pair frequencies in the generated firmware — dominated
  // by 16-bit idioms (lds/lds, add/adc, subi/sbci, asr/ror). A fused op
  // retires two instructions (see TierOp::ins_before) and can never exit
  // mid-op: both halves are side-effect-free against the I/O bus.
  kLds2, kSts2, kLdi2, kLdiAdd, kLdsAdd, kLdsSub, kAddSts, kRorLdi,
  kAddAdc, kAddAdd, kSubSbc, kSubiSbci, kAsrRor, kRorAsr,
  kLdsSts, kStsLds,
  // Conditional mid-block exits: the not-taken path continues inside the
  // block (its 1-cycle cost is folded into the next op's prefix sum); the
  // taken path leaves through the full block-exit sequence.
  kCondBrbs, kCondBrbc,
  kCondCpse, kCondSbrc, kCondSbrs, kCondSbic, kCondSbis,
  // RET whose matching call was followed earlier in the same block: pops
  // and compares against the translate-time return address (target); a
  // match continues in-block (leaf calls inline away), a mismatch leaves
  // through the block exit with the popped destination.
  kCondRet,
  // Terminators (exactly one per block, always the last op).
  kTermIjmp, kTermEijmp,   ///< dynamic target via Z (+EIND)
  kTermIcall, kTermEicall,
  kTermRet, kTermReti,
  kTermBsetI,    ///< SEI — ends the block so the IRQ poll runs right after
  kTermOutSreg,  ///< OUT 0x3F — wholesale SREG write, same reason
  kTermFall,     ///< pseudo-exit: size cap or untranslatable next op
};

inline constexpr auto kFirstTerminator =
    static_cast<std::uint8_t>(TierOpKind::kTermIjmp);
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
  std::uint64_t self_loops = 0;  ///< same-block re-entries w/o a lookup
  std::uint64_t interp_steps = 0;  ///< cycle-exact single-step fallbacks
  std::uint64_t fused_pairs = 0;  ///< pair macro-ops emitted by the peephole
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

  const TierBlock* find(std::uint32_t head_pc) const {
    const std::uint64_t slot = map[head_pc];
    if ((slot >> 32) != epoch) return nullptr;
    return &blocks[static_cast<std::uint32_t>(slot)];
  }

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
