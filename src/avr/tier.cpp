// Superblock translator: classifies decoded instructions into tier
// micro-ops with static cycle prefix sums and pre-masked branch targets.
// Classification is conservative — anything whose data effects cannot be
// proven equivalent to a plain-RAM access at translate time either tests
// the dispatch map at run time (and side-exits to the interpreter) or
// ends the block before the instruction.
#include "avr/tier.hpp"

#include "avr/decode.hpp"
#include "avr/instr.hpp"
#include "avr/io.hpp"
#include "avr/mcu.hpp"

namespace mavr::avr {

namespace {

/// Block size cap. Generated firmware bodies rarely exceed ~30 straight
/// instructions between control transfers; the cap bounds worst_cycles so
/// the dispatcher's deadline guard stays tight (a huge bound would force
/// needless single-stepping near timer deadlines).
constexpr std::uint32_t kMaxBlockOps = 64;

/// Packed (first, second) kind key for the pair-fusion table.
constexpr std::uint16_t pk(TierOpKind x, TierOpKind y) {
  return static_cast<std::uint16_t>((static_cast<std::uint16_t>(x) << 8) |
                                    static_cast<std::uint16_t>(y));
}

/// The fused kind for an adjacent pair, or kNop as the "no fusion"
/// sentinel (no pair is named kNop).
TierOpKind pair_kind(TierOpKind x, TierOpKind y) {
  switch (pk(x, y)) {
#define MAVR_PAIR_CASE(name, first, second)                 \
  case pk(TierOpKind::k##first, TierOpKind::k##second):     \
    return TierOpKind::k##name;
    MAVR_TIER_FUSED_PAIRS(MAVR_PAIR_CASE)
#undef MAVR_PAIR_CASE
    default: return TierOpKind::kNop;
  }
}

/// Peephole pass over a freshly translated block, greedy left to right:
/// each op fuses with at most one successor. Only the first op's kind
/// changes; the second stays in the arena with its own operands and
/// prefix counts, and the pair handler steps past it.
void fuse_pairs(TierOp* ops, std::uint32_t n, TierStats& stats) {
  for (std::uint32_t i = 0; i + 1 < n; ++i) {
    const TierOpKind f = pair_kind(ops[i].kind, ops[i + 1].kind);
    if (f == TierOpKind::kNop) continue;
    ops[i].kind = f;
    ++stats.fused_pairs;
    ++i;
  }
}

}  // namespace

// Out of line on purpose: sync() runs once per run(), and inlined into
// Cpu::run_tier its map allocation reshapes the executor's register use.
void SuperblockCache::sync(const ProgramMemory& flash,
                           std::uint64_t io_handler_gen) {
  if (map.empty()) map = support::ZeroPages<std::uint64_t>(flash.size_words());
  if (generation != flash.generation() ||
      handler_generation != io_handler_gen) {
    if (generation != flash.generation() && !blocks.empty()) {
      ++stats.invalidations;
    }
    generation = flash.generation();
    handler_generation = io_handler_gen;
    if (!blocks.empty()) {
      blocks.clear();
      arena.clear();
    }
    ++epoch;
  }
}

const TierBlock& SuperblockCache::translate(const ProgramMemory& flash,
                                            const std::uint8_t* dispatch,
                                            std::uint32_t head_pc,
                                            std::uint32_t pc_mask,
                                            std::uint32_t data_size,
                                            std::uint8_t push_bytes) {
  TierBlock blk;
  blk.head_pc = head_pc;
  blk.first_op = static_cast<std::uint32_t>(arena.size());

  std::uint32_t pc = head_pc;
  std::uint32_t cyc_before = 0;
  std::uint32_t worst_term = 0;
  std::uint32_t worst_cond = 0;  ///< worst prefix ending in a taken cond exit
  bool open = true;

  // Straight-line op: appended with the running prefix sums, which then
  // advance past it. Terminators append without advancing (the block ends).
  const auto emit = [&](TierOp op) {
    op.pc_abs = pc;
    op.cyc_before = cyc_before;
    // Every op retires exactly one instruction (a fused pair is two ops).
    op.ins_before = static_cast<std::uint16_t>(blk.num_ops);
    arena.push_back(op);
    ++blk.num_ops;
  };
  const auto straight = [&](TierOpKind kind, const Instr& in,
                            std::uint8_t cost, std::uint8_t b,
                            std::uint16_t k) {
    TierOp op;
    op.kind = kind;
    op.a = in.rd;
    op.b = b;
    op.cyc = cost;
    op.k = k;
    // Successor pc, so a dispatched-I/O op can retire mid-block and exit
    // at its own instruction boundary instead of side-stepping.
    op.target = (pc + in.size_words) & pc_mask;
    emit(op);
    cyc_before += cost;
    pc = op.target;
  };
  // Followed unconditional jump: RJMP/JMP with a static target retires as
  // a do-nothing op (the pc move is folded into translation) and the
  // block continues at the target — straight-line regions span jumps.
  const auto follow = [&](std::uint8_t cost, std::uint32_t target) {
    TierOp op;
    op.kind = TierOpKind::kNop;
    op.cyc = cost;
    op.target = target;
    emit(op);
    cyc_before += cost;
    pc = target;
  };
  // Followed static call: pushes the return address and continues into
  // the callee, inlining its body into the block up to the size cap. The
  // pushed address also lands on a translate-time return stack so a later
  // RET can be followed as a predicted continuation (kCondRet).
  std::uint32_t ret_stack[kMaxBlockOps];
  std::uint32_t ret_depth = 0;
  const auto call_push = [&](std::uint8_t cost, std::uint32_t target,
                             std::uint32_t ret) {
    TierOp op;
    op.kind = TierOpKind::kCallPush;
    op.cyc = cost;
    op.target = target;
    op.target2 = ret;
    emit(op);
    ret_stack[ret_depth++] = ret;
    cyc_before += cost;
    pc = target;
  };
  // Conditional mid-block exit: taken leaves for `taken` through the full
  // block-exit sequence, not-taken (1 cycle) continues inside the block.
  const auto cond = [&](TierOpKind kind, const Instr& in,
                        std::uint32_t taken) {
    TierOp op;
    op.kind = kind;
    op.a = in.rd;
    op.b = kind == TierOpKind::kCondCpse ? in.rr : in.bit;
    op.cyc = 2;
    op.k = in.k;
    op.target = taken;
    op.target2 = (pc + in.size_words) & pc_mask;
    emit(op);
    if (cyc_before + 2 > worst_cond) worst_cond = cyc_before + 2;
    cyc_before += 1;
    pc = op.target2;
  };
  // Terminator with the taken-path cycle count in `cyc`.
  const auto term = [&](TierOpKind kind, const Instr& in, std::uint8_t cyc,
                        std::uint32_t target, std::uint32_t target2,
                        std::uint8_t worst) {
    TierOp op;
    op.kind = kind;
    op.a = in.rd;
    op.b = in.bit;
    op.cyc = cyc;
    op.k = in.k;
    op.target = target;
    op.target2 = target2;
    emit(op);
    worst_term = worst;
    open = false;
  };
  // Ends the block *before* the instruction at `pc`: a pseudo-exit that
  // retires nothing and lets the dispatcher re-enter (usually via a
  // single-step fallback for an untranslatable head).
  const auto end_before = [&] {
    TierOp op;
    op.kind = TierOpKind::kTermFall;
    op.target = pc;
    emit(op);
    worst_term = 0;
    open = false;
  };

  while (open) {
    if (blk.num_ops + 1 >= kMaxBlockOps) {
      end_before();
      break;
    }
    const Instr in =
        decode(flash.word(pc), flash.word((pc + 1) & pc_mask));
    const std::uint32_t next = (pc + in.size_words) & pc_mask;
    const std::uint32_t rel =
        (pc + 1 + static_cast<std::uint32_t>(in.target)) & pc_mask;
    // Skip target for CPSE/SBRC/SBRS/SBIC/SBIS, resolved at translate
    // time: flash is immutable for the life of this translation (any
    // reprogramming bumps the generation and invalidates the block).
    const std::uint32_t skip =
        (next + (is_two_word(flash.word(next)) ? 2 : 1)) & pc_mask;
    const std::uint8_t call_cyc = push_bytes == 3 ? 4 : 3;

    // SEI re-enables interrupt delivery: the interpreter polls the lines
    // right after this instruction, so the block must end here for the
    // post-block poll to land at the same boundary.
    if (in.op == Op::Bset && in.bit == kI) {
      term(TierOpKind::kTermBsetI, in, 1, next, next, 1);
      continue;
    }
    switch (in.op) {
#define MAVR_TRANSLATE_REG(name, cost, field)                  \
      case Op::name:                                           \
        straight(TierOpKind::k##name, in, cost, in.field, in.k); \
        break;
      MAVR_AVR_REG_OPS(MAVR_TRANSLATE_REG)
#undef MAVR_TRANSLATE_REG
#define MAVR_TRANSLATE_MEM(name, cost)                         \
      case Op::name:                                           \
        straight(TierOpKind::k##name, in, cost, in.rr, in.k);  \
        break;
      MAVR_AVR_MEM_OPS(MAVR_TRANSLATE_MEM)
#undef MAVR_TRANSLATE_MEM

      // --- untranslatable heads: leave them to the interpreter ---------
      case Op::Invalid:   // faults with FaultInfo bookkeeping
      case Op::Break:     // stops the core
        end_before();
        break;

      case Op::Nop:
      case Op::Sleep:
      case Op::Wdr:
      case Op::Spm:
        straight(TierOpKind::kNop, in, 1, in.rr, in.k);
        break;

      // --- static-address data transfer ---------------------------------
      // Dispatch is resolved at translate time: an address no device
      // handles is plain RAM (and fusable). sync() invalidates on any
      // later handler registration. IN/OUT reuse the LDS/STS kinds (op
      // bodies never read the static cycle cost).
      case Op::Lds:
      case Op::In: {
        const std::uint16_t addr =
            in.op == Op::In ? static_cast<std::uint16_t>(kIoBase + in.k)
                             : in.k;
        const std::uint8_t cost = in.op == Op::In ? 1 : 2;
        if (addr == kAddrSreg) {
          straight(TierOpKind::kLdsSreg, in, cost, in.rr, addr);
        } else if (addr < kExtIoEnd) {
          straight((dispatch[addr] & IoBus::kHandlesRead)
                       ? TierOpKind::kLdsLow
                       : TierOpKind::kLdsRam,
                   in, cost, in.rr, addr);
        } else if (addr < data_size) {
          straight(TierOpKind::kLdsRam, in, cost, in.rr, addr);
        } else {
          end_before();  // wraps through the data-space modulo
        }
        break;
      }
      case Op::Sts:
      case Op::Out: {
        const std::uint16_t addr =
            in.op == Op::Out ? static_cast<std::uint16_t>(kIoBase + in.k)
                             : in.k;
        const std::uint8_t cost = in.op == Op::Out ? 1 : 2;
        if (addr == kAddrSreg) {
          if (in.op == Op::Out) {
            // Can set the I flag — same block-boundary rule as SEI.
            Instr io = in;
            io.k = addr;
            term(TierOpKind::kTermOutSreg, io, 1, next, next, 1);
          } else {
            end_before();  // the interpreter keeps a wholesale STS exact
          }
        } else if (addr < kExtIoEnd) {
          straight((dispatch[addr] & IoBus::kHandlesWrite)
                       ? TierOpKind::kStsLow
                       : TierOpKind::kStsRam,
                   in, cost, in.rr, addr);
        } else if (addr < data_size) {
          straight(TierOpKind::kStsRam, in, cost, in.rr, addr);
        } else {
          end_before();
        }
        break;
      }
      case Op::Sbi:
      case Op::Cbi:
        straight(in.op == Op::Sbi ? TierOpKind::kSbi : TierOpKind::kCbi, in,
                 2, in.bit, static_cast<std::uint16_t>(kIoBase + in.k));
        break;

      // --- control flow -------------------------------------------------
      case Op::Rjmp: follow(2, rel); break;
      case Op::Jmp:
        follow(3, static_cast<std::uint32_t>(in.target) & pc_mask);
        break;
      case Op::Ijmp: term(TierOpKind::kTermIjmp, in, 2, 0, next, 2); break;
      case Op::Eijmp: term(TierOpKind::kTermEijmp, in, 2, 0, next, 2); break;
      case Op::Rcall: call_push(call_cyc, rel, next); break;
      case Op::Call:
        call_push(static_cast<std::uint8_t>(call_cyc + 1),
                  static_cast<std::uint32_t>(in.target) & pc_mask, next);
        break;
      case Op::Icall:
        term(TierOpKind::kTermIcall, in, call_cyc, 0, next, call_cyc);
        break;
      case Op::Eicall:
        term(TierOpKind::kTermEicall, in, 4, 0, next, 4);
        break;
      case Op::Ret:
        if (ret_depth > 0) {
          // The matching call was followed in this very block, so the
          // popped address is known unless the callee unbalanced the
          // stack; the executor verifies and exits on a mismatch. Both
          // paths cost the full RET latency, folded into the prefix sums
          // like a not-taken conditional.
          const std::uint8_t ret_cyc = push_bytes == 3 ? 5 : 4;
          TierOp op;
          op.kind = TierOpKind::kCondRet;
          op.cyc = ret_cyc;
          op.target = ret_stack[--ret_depth];
          op.target2 = op.target;
          emit(op);
          if (cyc_before + ret_cyc > worst_cond) {
            worst_cond = cyc_before + ret_cyc;
          }
          cyc_before += ret_cyc;
          pc = op.target;
        } else {
          term(TierOpKind::kTermRet, in, push_bytes == 3 ? 5 : 4, 0, 0,
               push_bytes == 3 ? 5 : 4);
        }
        break;
      case Op::Reti:
        term(TierOpKind::kTermReti, in, push_bytes == 3 ? 5 : 4, 0, 0,
             push_bytes == 3 ? 5 : 4);
        break;
      case Op::Brbs: cond(TierOpKind::kCondBrbs, in, rel); break;
      case Op::Brbc: cond(TierOpKind::kCondBrbc, in, rel); break;
      case Op::Cpse: cond(TierOpKind::kCondCpse, in, skip); break;
      case Op::Sbrc: cond(TierOpKind::kCondSbrc, in, skip); break;
      case Op::Sbrs: cond(TierOpKind::kCondSbrs, in, skip); break;
      case Op::Sbic: {
        Instr io = in;
        io.k = static_cast<std::uint16_t>(kIoBase + in.k);
        cond(TierOpKind::kCondSbic, io, skip);
        break;
      }
      case Op::Sbis: {
        Instr io = in;
        io.k = static_cast<std::uint16_t>(kIoBase + in.k);
        cond(TierOpKind::kCondSbis, io, skip);
        break;
      }
    }
  }

  fuse_pairs(arena.data() + blk.first_op, blk.num_ops, stats);

  blk.worst_cycles = cyc_before + worst_term;
  if (worst_cond > blk.worst_cycles) blk.worst_cycles = worst_cond;
  blk.interp_only = blk.num_ops == 1 &&
                    arena[blk.first_op].kind == TierOpKind::kTermFall &&
                    arena[blk.first_op].target == head_pc;
  ++stats.blocks_translated;
  map[head_pc] = (epoch << 32) | static_cast<std::uint32_t>(blocks.size());
  blocks.push_back(blk);
  return blocks.back();
}

}  // namespace mavr::avr
