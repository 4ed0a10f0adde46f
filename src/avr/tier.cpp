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

/// Fusion table: the fused kind for an adjacent pure-op pair, or kNop as
/// the "no fusion" sentinel (no pattern ever *produces* kNop). Patterns
/// come from measured pair frequencies in generated firmware; every
/// member is side-effect-free against the I/O bus, so a fused op can
/// never need a mid-op exit.
TierOpKind pair_kind(TierOpKind x, TierOpKind y) {
  using K = TierOpKind;
  switch (pk(x, y)) {
    case pk(K::kLdsRam, K::kLdsRam): return K::kLds2;
    case pk(K::kStsRam, K::kStsRam): return K::kSts2;
    case pk(K::kLdi, K::kLdi):       return K::kLdi2;
    case pk(K::kLdi, K::kAdd):       return K::kLdiAdd;
    case pk(K::kLdsRam, K::kAdd):    return K::kLdsAdd;
    case pk(K::kLdsRam, K::kSub):    return K::kLdsSub;
    case pk(K::kAdd, K::kStsRam):    return K::kAddSts;
    case pk(K::kRor, K::kLdi):       return K::kRorLdi;
    case pk(K::kAdd, K::kAdc):       return K::kAddAdc;
    case pk(K::kAdd, K::kAdd):       return K::kAddAdd;
    case pk(K::kSub, K::kSbc):       return K::kSubSbc;
    case pk(K::kSubi, K::kSbci):     return K::kSubiSbci;
    case pk(K::kAsr, K::kRor):       return K::kAsrRor;
    case pk(K::kRor, K::kAsr):       return K::kRorAsr;
    case pk(K::kLdsRam, K::kStsRam): return K::kLdsSts;
    case pk(K::kStsRam, K::kLdsRam): return K::kStsLds;
    default: return K::kNop;
  }
}

/// Packs the second op's operands into the first's spare fields. The
/// fused op keeps the first op's pc_abs/cyc_before/ins_before — it can
/// never exit mid-op, so downstream bookkeeping is untouched.
TierOp fuse(const TierOp& x, const TierOp& y, TierOpKind f) {
  using K = TierOpKind;
  TierOp m = x;
  m.kind = f;
  switch (f) {
    case K::kLds2:
    case K::kSts2:
    case K::kLdi2:
    case K::kSubiSbci:
    case K::kLdsSts:
    case K::kStsLds:
      m.b = y.a;
      m.target = y.k;
      break;
    case K::kLdiAdd:
    case K::kLdsAdd:
    case K::kLdsSub:
      m.b = y.a;
      m.target = y.b;
      break;
    case K::kAddSts:
      m.k = y.k;
      m.target = y.a;
      break;
    case K::kRorLdi:
      m.b = y.a;
      m.k = y.k;
      break;
    case K::kAddAdc:
    case K::kAddAdd:
    case K::kSubSbc:
      m.k = static_cast<std::uint16_t>(y.a | (y.b << 8));
      break;
    case K::kAsrRor:
    case K::kRorAsr:
      m.b = y.a;
      break;
    default:
      break;
  }
  return m;
}

/// Peephole pass over a freshly translated block (it is the last one in
/// the arena, so compaction can shrink the arena in place). Greedy
/// left-to-right: each op fuses with at most one successor.
void fuse_pairs(std::vector<TierOp>& arena, TierBlock& blk,
                TierStats& stats) {
  TierOp* const ops = arena.data() + blk.first_op;
  const std::uint32_t n = blk.num_ops;
  std::uint32_t w = 0, i = 0;
  while (i < n) {
    if (i + 1 < n) {
      const TierOpKind f = pair_kind(ops[i].kind, ops[i + 1].kind);
      if (f != TierOpKind::kNop) {
        ops[w++] = fuse(ops[i], ops[i + 1], f);
        ++stats.fused_pairs;
        i += 2;
        continue;
      }
    }
    ops[w++] = ops[i++];
  }
  blk.num_ops = w;
  arena.resize(blk.first_op + w);
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
    // Every emitted op retires exactly one instruction at this stage;
    // the fusion pass below merges pairs and keeps the prefix counts.
    op.ins_before = static_cast<std::uint16_t>(blk.num_ops);
    arena.push_back(op);
    ++blk.num_ops;
  };
  const auto straight = [&](TierOpKind kind, const Instr& in,
                            std::uint8_t cost, std::uint16_t k_override,
                            std::uint8_t a_override) {
    TierOp op;
    op.kind = kind;
    op.a = a_override;
    op.b = kind == TierOpKind::kBset || kind == TierOpKind::kBclr ||
                   kind == TierOpKind::kBst || kind == TierOpKind::kBld ||
                   kind == TierOpKind::kSbi || kind == TierOpKind::kCbi
               ? in.bit
               : in.rr;
    op.cyc = cost;
    op.k = k_override;
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

    switch (in.op) {
      // --- untranslatable heads: leave them to the interpreter ---------
      case Op::Invalid:   // faults with FaultInfo bookkeeping
      case Op::Break:     // stops the core
        end_before();
        break;

      case Op::Nop:
      case Op::Sleep:
      case Op::Wdr:
      case Op::Spm:
        straight(TierOpKind::kNop, in, 1, in.k, in.rd);
        break;

      // --- ALU ----------------------------------------------------------
      case Op::Add: straight(TierOpKind::kAdd, in, 1, in.k, in.rd); break;
      case Op::Adc: straight(TierOpKind::kAdc, in, 1, in.k, in.rd); break;
      case Op::Sub: straight(TierOpKind::kSub, in, 1, in.k, in.rd); break;
      case Op::Sbc: straight(TierOpKind::kSbc, in, 1, in.k, in.rd); break;
      case Op::And: straight(TierOpKind::kAnd, in, 1, in.k, in.rd); break;
      case Op::Or:  straight(TierOpKind::kOr, in, 1, in.k, in.rd); break;
      case Op::Eor: straight(TierOpKind::kEor, in, 1, in.k, in.rd); break;
      case Op::Mov: straight(TierOpKind::kMov, in, 1, in.k, in.rd); break;
      case Op::Movw: straight(TierOpKind::kMovw, in, 1, in.k, in.rd); break;
      case Op::Mul: straight(TierOpKind::kMul, in, 2, in.k, in.rd); break;
      case Op::Cp:  straight(TierOpKind::kCp, in, 1, in.k, in.rd); break;
      case Op::Cpc: straight(TierOpKind::kCpc, in, 1, in.k, in.rd); break;
      case Op::Ldi: straight(TierOpKind::kLdi, in, 1, in.k, in.rd); break;
      case Op::Subi: straight(TierOpKind::kSubi, in, 1, in.k, in.rd); break;
      case Op::Sbci: straight(TierOpKind::kSbci, in, 1, in.k, in.rd); break;
      case Op::Andi: straight(TierOpKind::kAndi, in, 1, in.k, in.rd); break;
      case Op::Ori: straight(TierOpKind::kOri, in, 1, in.k, in.rd); break;
      case Op::Cpi: straight(TierOpKind::kCpi, in, 1, in.k, in.rd); break;
      case Op::Com: straight(TierOpKind::kCom, in, 1, in.k, in.rd); break;
      case Op::Neg: straight(TierOpKind::kNeg, in, 1, in.k, in.rd); break;
      case Op::Inc: straight(TierOpKind::kInc, in, 1, in.k, in.rd); break;
      case Op::Dec: straight(TierOpKind::kDec, in, 1, in.k, in.rd); break;
      case Op::Swap: straight(TierOpKind::kSwap, in, 1, in.k, in.rd); break;
      case Op::Asr: straight(TierOpKind::kAsr, in, 1, in.k, in.rd); break;
      case Op::Lsr: straight(TierOpKind::kLsr, in, 1, in.k, in.rd); break;
      case Op::Ror: straight(TierOpKind::kRor, in, 1, in.k, in.rd); break;
      case Op::Adiw: straight(TierOpKind::kAdiw, in, 2, in.k, in.rd); break;
      case Op::Sbiw: straight(TierOpKind::kSbiw, in, 2, in.k, in.rd); break;

      // --- SREG bit ops -------------------------------------------------
      case Op::Bset:
        if (in.bit == kI) {
          // SEI re-enables interrupt delivery: the interpreter polls the
          // lines right after this instruction, so the block must end
          // here for the post-block poll to land at the same boundary.
          term(TierOpKind::kTermBsetI, in, 1, next, next, 1);
        } else {
          straight(TierOpKind::kBset, in, 1, in.k, in.rd);
        }
        break;
      case Op::Bclr: straight(TierOpKind::kBclr, in, 1, in.k, in.rd); break;
      case Op::Bst: straight(TierOpKind::kBst, in, 1, in.k, in.rd); break;
      case Op::Bld: straight(TierOpKind::kBld, in, 1, in.k, in.rd); break;

      // --- static-address data transfer ---------------------------------
      case Op::Lds:
        if (in.k == kAddrSreg) {
          straight(TierOpKind::kLdsSreg, in, 2, in.k, in.rd);
        } else if (in.k < kExtIoEnd) {
          // Dispatch resolved at translate time: an unhandled I/O-region
          // address is plain RAM (and fusable). sync() invalidates on any
          // later handler registration.
          straight((dispatch[in.k] & IoBus::kHandlesRead)
                       ? TierOpKind::kLdsLow
                       : TierOpKind::kLdsRam,
                   in, 2, in.k, in.rd);
        } else if (in.k < data_size) {
          straight(TierOpKind::kLdsRam, in, 2, in.k, in.rd);
        } else {
          end_before();  // wraps through the data-space modulo
        }
        break;
      case Op::Sts:
        if (in.k == kAddrSreg) {
          end_before();  // wholesale SREG write: interpreter keeps it exact
        } else if (in.k < kExtIoEnd) {
          straight((dispatch[in.k] & IoBus::kHandlesWrite)
                       ? TierOpKind::kStsLow
                       : TierOpKind::kStsRam,
                   in, 2, in.k, in.rd);
        } else if (in.k < data_size) {
          straight(TierOpKind::kStsRam, in, 2, in.k, in.rd);
        } else {
          end_before();
        }
        break;
      case Op::In: {
        const std::uint16_t addr =
            static_cast<std::uint16_t>(kIoBase + in.k);
        // An IN from an unhandled port is a 1-cycle plain-RAM load; reuse
        // kLdsRam (op bodies never read the static cycle cost).
        straight(addr == kAddrSreg ? TierOpKind::kInSreg
                 : (dispatch[addr] & IoBus::kHandlesRead)
                     ? TierOpKind::kIn
                     : TierOpKind::kLdsRam,
                 in, 1, addr, in.rd);
        break;
      }
      case Op::Out:
        if (kIoBase + in.k == kAddrSreg) {
          // Can set the I flag — same block-boundary rule as SEI.
          term(TierOpKind::kTermOutSreg, in, 1, next, next, 1);
        } else {
          const std::uint16_t addr =
              static_cast<std::uint16_t>(kIoBase + in.k);
          straight((dispatch[addr] & IoBus::kHandlesWrite)
                       ? TierOpKind::kOut
                       : TierOpKind::kStsRam,
                   in, 1, addr, in.rd);
        }
        break;
      case Op::Sbi:
        straight(TierOpKind::kSbi, in, 2,
                 static_cast<std::uint16_t>(kIoBase + in.k), in.rd);
        break;
      case Op::Cbi:
        straight(TierOpKind::kCbi, in, 2,
                 static_cast<std::uint16_t>(kIoBase + in.k), in.rd);
        break;

      // --- pointer-addressed data transfer ------------------------------
      case Op::LdX: straight(TierOpKind::kLdX, in, 2, in.k, in.rd); break;
      case Op::LdXInc: straight(TierOpKind::kLdXInc, in, 2, in.k, in.rd); break;
      case Op::LdXDec: straight(TierOpKind::kLdXDec, in, 2, in.k, in.rd); break;
      case Op::LdYInc: straight(TierOpKind::kLdYInc, in, 2, in.k, in.rd); break;
      case Op::LdYDec: straight(TierOpKind::kLdYDec, in, 2, in.k, in.rd); break;
      case Op::LddY: straight(TierOpKind::kLddY, in, 2, in.k, in.rd); break;
      case Op::LdZInc: straight(TierOpKind::kLdZInc, in, 2, in.k, in.rd); break;
      case Op::LdZDec: straight(TierOpKind::kLdZDec, in, 2, in.k, in.rd); break;
      case Op::LddZ: straight(TierOpKind::kLddZ, in, 2, in.k, in.rd); break;
      case Op::StX: straight(TierOpKind::kStX, in, 2, in.k, in.rd); break;
      case Op::StXInc: straight(TierOpKind::kStXInc, in, 2, in.k, in.rd); break;
      case Op::StXDec: straight(TierOpKind::kStXDec, in, 2, in.k, in.rd); break;
      case Op::StYInc: straight(TierOpKind::kStYInc, in, 2, in.k, in.rd); break;
      case Op::StYDec: straight(TierOpKind::kStYDec, in, 2, in.k, in.rd); break;
      case Op::StdY: straight(TierOpKind::kStdY, in, 2, in.k, in.rd); break;
      case Op::StZInc: straight(TierOpKind::kStZInc, in, 2, in.k, in.rd); break;
      case Op::StZDec: straight(TierOpKind::kStZDec, in, 2, in.k, in.rd); break;
      case Op::StdZ: straight(TierOpKind::kStdZ, in, 2, in.k, in.rd); break;
      case Op::LpmR0: straight(TierOpKind::kLpmR0, in, 3, in.k, in.rd); break;
      case Op::Lpm: straight(TierOpKind::kLpm, in, 3, in.k, in.rd); break;
      case Op::LpmInc: straight(TierOpKind::kLpmInc, in, 3, in.k, in.rd); break;
      case Op::ElpmR0: straight(TierOpKind::kElpmR0, in, 3, in.k, in.rd); break;
      case Op::Elpm: straight(TierOpKind::kElpm, in, 3, in.k, in.rd); break;
      case Op::ElpmInc:
        straight(TierOpKind::kElpmInc, in, 3, in.k, in.rd);
        break;
      case Op::Push: straight(TierOpKind::kPush, in, 2, in.k, in.rd); break;
      case Op::Pop: straight(TierOpKind::kPop, in, 2, in.k, in.rd); break;

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

  fuse_pairs(arena, blk, stats);

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
