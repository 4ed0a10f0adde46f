#include "attack/gadgets.hpp"

#include <algorithm>

#include "avr/mcu.hpp"
#include "avr/walk.hpp"

namespace mavr::attack {

using avr::Instr;
using avr::Op;

const char* gadget_kind_name(GadgetKind kind) {
  switch (kind) {
    case GadgetKind::kRet: return "ret";
    case GadgetKind::kStkMove: return "stk_move";
    case GadgetKind::kWriteMem: return "write_mem";
  }
  return "?";
}

GadgetFinder::GadgetFinder(std::span<const std::uint8_t> image,
                           std::uint32_t text_end) {
  scan(image, text_end);
}

void GadgetFinder::scan(std::span<const std::uint8_t> image,
                        std::uint32_t text_end) {
  std::vector<Instr> instrs;
  std::vector<std::uint32_t> addrs;
  const std::uint32_t limit = std::min<std::uint32_t>(
      text_end, static_cast<std::uint32_t>(image.size()));
  avr::for_each_instr(image.first(limit), 0,
                      [&](std::uint32_t addr, const Instr& in) {
                        instrs.push_back(in);
                        addrs.push_back(addr);
                      });

  const auto pops_before_ret = [&](std::size_t ret_idx,
                                   std::size_t first) {
    // Collect the pop registers in [first, ret_idx) — all must be pops.
    std::vector<std::uint8_t> pops;
    for (std::size_t i = first; i < ret_idx; ++i) {
      if (instrs[i].op != Op::Pop) return std::vector<std::uint8_t>{};
      pops.push_back(instrs[i].rd);
    }
    return pops;
  };

  for (std::size_t i = 0; i < instrs.size(); ++i) {
    if (instrs[i].op != Op::Ret) continue;
    ++census_.ret_gadgets;

    // Walk backwards over the contiguous pop run preceding this ret.
    std::size_t first_pop = i;
    while (first_pop > 0 && instrs[first_pop - 1].op == Op::Pop) --first_pop;
    const std::size_t n_pops = i - first_pop;
    if (n_pops >= 4) ++census_.pop_chain_gadgets;
    sites_.push_back({addrs[i], GadgetKind::kRet,
                      static_cast<std::uint8_t>(std::min<std::size_t>(
                          n_pops, 255))});

    // stk_move: out SPL,r28 ; [pops] ; ret — preceded by out SREG and
    // out SPH (paper Fig. 4). Entry is at the out SPH.
    if (n_pops >= 1 && first_pop >= 3) {
      const Instr& o3 = instrs[first_pop - 1];  // out 0x3d, r28
      const Instr& o2 = instrs[first_pop - 2];  // out 0x3f, r0
      const Instr& o1 = instrs[first_pop - 3];  // out 0x3e, r29
      if (o3.op == Op::Out && o3.k == avr::kIoSpl && o3.rd == 28 &&
          o2.op == Op::Out && o2.k == avr::kIoSreg &&
          o1.op == Op::Out && o1.k == avr::kIoSph && o1.rd == 29) {
        StkMoveGadget g;
        g.entry_byte_addr = addrs[first_pop - 3];
        g.pops = pops_before_ret(i, first_pop);
        sites_.push_back({g.entry_byte_addr, GadgetKind::kStkMove,
                          static_cast<std::uint8_t>(
                              std::min<std::size_t>(g.pops.size(), 255))});
        stk_moves_.push_back(std::move(g));
        ++census_.stk_move_gadgets;
      }
    }

    // write_mem: std Y+1,r5 ; std Y+2,r6 ; std Y+3,r7 ; pops ; ret
    // (paper Fig. 5). Requires the pop run to reload Y and r5..r7 so the
    // gadget can be chained.
    if (n_pops >= 5 && first_pop >= 3) {
      const Instr& s1 = instrs[first_pop - 3];
      const Instr& s2 = instrs[first_pop - 2];
      const Instr& s3 = instrs[first_pop - 1];
      const auto is_std = [](const Instr& in, std::uint16_t q,
                             std::uint8_t reg) {
        return in.op == Op::StdY && in.k == q && in.rd == reg;
      };
      if (is_std(s1, 1, 5) && is_std(s2, 2, 6) && is_std(s3, 3, 7)) {
        std::vector<std::uint8_t> pops = pops_before_ret(i, first_pop);
        const auto has = [&](std::uint8_t r) {
          for (std::uint8_t p : pops) {
            if (p == r) return true;
          }
          return false;
        };
        if (has(28) && has(29) && has(5) && has(6) && has(7)) {
          WriteMemGadget g;
          g.store_entry_byte_addr = addrs[first_pop - 3];
          g.pop_entry_byte_addr = addrs[first_pop];
          g.pops = std::move(pops);
          sites_.push_back({g.store_entry_byte_addr, GadgetKind::kWriteMem,
                            static_cast<std::uint8_t>(
                                std::min<std::size_t>(g.pops.size(), 255))});
          write_mems_.push_back(std::move(g));
          ++census_.write_mem_gadgets;
        }
      }
    }
  }
  // Per-sequence emission appends the ret before its own mid-sequence
  // entries; one stable sort restores global address order.
  std::stable_sort(sites_.begin(), sites_.end(),
                   [](const GadgetSite& a, const GadgetSite& b) {
                     if (a.byte_addr != b.byte_addr)
                       return a.byte_addr < b.byte_addr;
                     return static_cast<int>(a.kind) < static_cast<int>(b.kind);
                   });
}

}  // namespace mavr::attack
