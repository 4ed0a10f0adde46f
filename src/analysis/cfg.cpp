#include "analysis/cfg.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <optional>

#include "avr/walk.hpp"

namespace mavr::analysis {

namespace {

using avr::Op;

bool is_terminator(Op op) {
  switch (op) {
    case Op::Rjmp: case Op::Jmp: case Op::Ijmp: case Op::Eijmp:
    case Op::Ret: case Op::Reti: case Op::Break: case Op::Invalid:
    case Op::Brbs: case Op::Brbc:
    case Op::Cpse: case Op::Sbrc: case Op::Sbrs: case Op::Sbic: case Op::Sbis:
      return true;
    default:
      return false;
  }
}

bool is_skip(Op op) {
  return op == Op::Cpse || op == Op::Sbrc || op == Op::Sbrs ||
         op == Op::Sbic || op == Op::Sbis;
}

struct DecodedInstr {
  std::uint32_t offset = 0;
  avr::Instr in;
};

std::string fmt(const char* format, ...) {
  char buf[128];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

}  // namespace

const char* block_end_name(BlockEnd end) {
  switch (end) {
    case BlockEnd::kFallThrough: return "fall";
    case BlockEnd::kJump: return "jump";
    case BlockEnd::kBranch: return "branch";
    case BlockEnd::kSkip: return "skip";
    case BlockEnd::kRet: return "ret";
    case BlockEnd::kReti: return "reti";
    case BlockEnd::kIndirectJump: return "ijmp";
    case BlockEnd::kHalt: return "halt";
    case BlockEnd::kFault: return "fault";
    case BlockEnd::kTruncated: return "truncated";
    case BlockEnd::kFallsOffEnd: return "falls-off";
  }
  return "?";
}

std::uint32_t RegionCfg::n_edges() const {
  std::uint32_t edges = 0;
  for (const BasicBlock& b : blocks) {
    edges += static_cast<std::uint32_t>(b.succs.size());
  }
  return edges;
}

RegionCfg build_region_cfg(std::span<const std::uint8_t> code,
                           std::uint32_t base) {
  RegionCfg cfg;
  cfg.base = base;
  cfg.size = static_cast<std::uint32_t>(code.size());

  // Pass 1 — linear decode (avr/walk.hpp). A 32-bit instruction whose
  // second word would lie past the region end is recorded as truncated.
  std::vector<DecodedInstr> instrs;
  instrs.reserve(code.size() / 2);
  // word offset -> index into `instrs`, -1 for non-boundary words.
  std::vector<std::int32_t> word_to_idx(code.size() / 2, -1);
  const std::optional<std::uint32_t> truncated = avr::for_each_instr(
      code, 0, [&](std::uint32_t pos, const avr::Instr& in) {
        word_to_idx[pos / 2] = static_cast<std::int32_t>(instrs.size());
        instrs.push_back({pos, in});
      });
  if (truncated) cfg.truncated.push_back(*truncated);

  // Pass 2 — resolve targets, collect leaders and per-instruction edges.
  // Region-relative arithmetic keeps everything position-independent; only
  // absolute encodings (jmp/call) need `base` to come back to offsets.
  const auto on_boundary = [&](std::int64_t rel) {
    return rel >= 0 && rel < cfg.size && rel % 2 == 0 &&
           word_to_idx[static_cast<std::size_t>(rel) / 2] >= 0;
  };
  std::vector<std::uint8_t> leader(instrs.size(), 0);
  if (!instrs.empty()) leader[0] = 1;
  // Per-instruction resolved intra-region targets (branch/jump/skip).
  std::vector<std::vector<std::uint32_t>> targets(instrs.size());
  const auto add_target = [&](std::size_t i, std::int64_t rel,
                              std::uint32_t offset) {
    if (on_boundary(rel)) {
      const std::uint32_t t = static_cast<std::uint32_t>(rel);
      targets[i].push_back(t);
      leader[static_cast<std::size_t>(word_to_idx[t / 2])] = 1;
    } else {
      cfg.jumps_out.push_back(
          {offset, static_cast<std::int64_t>(base) + rel});
    }
  };
  for (std::size_t i = 0; i < instrs.size(); ++i) {
    const std::uint32_t o = instrs[i].offset;
    const avr::Instr& in = instrs[i].in;
    switch (in.op) {
      case Op::Rjmp:
      case Op::Brbs:
      case Op::Brbc:
        add_target(i, static_cast<std::int64_t>(o) + 2 + in.target * 2, o);
        break;
      case Op::Jmp:
        add_target(i,
                   static_cast<std::int64_t>(in.target) * 2 -
                       static_cast<std::int64_t>(base),
                   o);
        break;
      case Op::Rcall:
        cfg.calls.push_back(
            {o, o + 2, false,
             static_cast<std::int64_t>(base) + o + 2 + in.target * 2});
        break;
      case Op::Call:
        cfg.calls.push_back({o, o + static_cast<std::uint32_t>(in.size_words) * 2,
                             false, static_cast<std::int64_t>(in.target) * 2});
        break;
      case Op::Icall:
      case Op::Eicall:
        cfg.calls.push_back({o, o + 2, true, -1});
        break;
      case Op::Ijmp:
      case Op::Eijmp:
        cfg.indirect_jumps.push_back(o);
        break;
      case Op::Cpse:
      case Op::Sbrc:
      case Op::Sbrs:
      case Op::Sbic:
      case Op::Sbis: {
        // The skip distance depends on the *next* instruction's size.
        if (i + 1 < instrs.size()) {
          const std::uint32_t next = instrs[i + 1].offset;
          const std::uint32_t skip =
              next + static_cast<std::uint32_t>(instrs[i + 1].in.size_words) * 2;
          add_target(i, skip, o);
        }
        break;
      }
      default:
        break;
    }
    // The instruction after any terminator starts a block.
    if (is_terminator(in.op) && i + 1 < instrs.size()) leader[i + 1] = 1;
  }

  // Pass 3 — form blocks.
  BasicBlock block;
  bool open = false;
  const auto close = [&](std::uint32_t end, BlockEnd kind,
                         std::vector<std::uint32_t> succs) {
    block.end = end;
    block.end_kind = kind;
    std::sort(succs.begin(), succs.end());
    succs.erase(std::unique(succs.begin(), succs.end()), succs.end());
    block.succs = std::move(succs);
    cfg.blocks.push_back(std::move(block));
    block = BasicBlock{};
    open = false;
  };
  for (std::size_t i = 0; i < instrs.size(); ++i) {
    const std::uint32_t o = instrs[i].offset;
    const avr::Instr& in = instrs[i].in;
    const std::uint32_t next = o + static_cast<std::uint32_t>(in.size_words) * 2;
    if (open && leader[i]) close(o, BlockEnd::kFallThrough, {o});
    if (!open) {
      block.start = o;
      open = true;
    }
    ++block.n_instrs;
    if (!is_terminator(in.op)) continue;
    std::vector<std::uint32_t> succs = targets[i];
    switch (in.op) {
      case Op::Rjmp:
      case Op::Jmp:
        close(next, BlockEnd::kJump, std::move(succs));
        break;
      case Op::Brbs:
      case Op::Brbc:
      case Op::Cpse:
      case Op::Sbrc:
      case Op::Sbrs:
      case Op::Sbic:
      case Op::Sbis:
        // Fall-through edge exists only while there is an instruction there.
        if (i + 1 < instrs.size()) succs.push_back(instrs[i + 1].offset);
        close(next, is_skip(in.op) ? BlockEnd::kSkip : BlockEnd::kBranch,
              std::move(succs));
        break;
      case Op::Ret: close(next, BlockEnd::kRet, {}); break;
      case Op::Reti: close(next, BlockEnd::kReti, {}); break;
      case Op::Ijmp:
      case Op::Eijmp:
        close(next, BlockEnd::kIndirectJump, {});
        break;
      case Op::Break: close(next, BlockEnd::kHalt, {}); break;
      case Op::Invalid: close(next, BlockEnd::kFault, {}); break;
      default: break;
    }
  }
  if (open) {
    // The region ran out under us: either a straddling 32-bit instruction
    // (truncated) or plain fall-through into whatever bytes follow.
    close(truncated ? *truncated
                    : instrs.back().offset +
                          static_cast<std::uint32_t>(
                              instrs.back().in.size_words) * 2,
          truncated ? BlockEnd::kTruncated : BlockEnd::kFallsOffEnd, {});
  } else if (truncated && cfg.blocks.empty()) {
    // Region *starts* with a straddling instruction: one empty block
    // records the fact so the CFG is never silently empty for a non-empty
    // region.
    block.start = *truncated;
    open = true;
    close(*truncated, BlockEnd::kTruncated, {});
  }

  std::sort(cfg.jumps_out.begin(), cfg.jumps_out.end(),
            [](const JumpOut& a, const JumpOut& b) {
              return a.offset < b.offset;
            });
  return cfg;
}

std::string format_cfg(const RegionCfg& cfg) {
  std::string out;
  out += fmt("region base=0x%x size=0x%x blocks=%zu edges=%u calls=%zu\n",
             cfg.base, cfg.size, cfg.blocks.size(), cfg.n_edges(),
             cfg.calls.size());
  for (const BasicBlock& b : cfg.blocks) {
    out += fmt("block 0x%x..0x%x instrs=%u end=%s", b.start, b.end,
               b.n_instrs, block_end_name(b.end_kind));
    if (!b.succs.empty()) {
      out += " ->";
      for (std::uint32_t s : b.succs) out += fmt(" 0x%x", s);
    }
    out += '\n';
  }
  for (const CallSite& c : cfg.calls) {
    if (c.indirect) {
      out += fmt("call 0x%x indirect\n", c.offset);
    } else {
      out += fmt("call 0x%x -> 0x%llx\n", c.offset,
                 static_cast<unsigned long long>(c.target));
    }
  }
  for (std::uint32_t o : cfg.indirect_jumps) out += fmt("ijmp 0x%x\n", o);
  for (const JumpOut& j : cfg.jumps_out) {
    out += fmt("jump-out 0x%x -> %s0x%llx\n", j.offset,
               j.target < 0 ? "-" : "",
               static_cast<unsigned long long>(
                   j.target < 0 ? -j.target : j.target));
  }
  for (std::uint32_t o : cfg.truncated) out += fmt("truncated 0x%x\n", o);
  return out;
}

}  // namespace mavr::analysis
