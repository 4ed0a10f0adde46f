// Regenerates Figs. 4 and 5 (paper §IV-D): disassembled listings of the
// stk_move and write_mem gadgets as discovered in the vulnerable test
// application's binary.
#include <cstdio>
#include <string>

#include "attack/attacks.hpp"
#include "bench_util.hpp"
#include "toolchain/disasm.hpp"
#include "toolchain/function_index.hpp"

namespace {

// Name of the function holding `byte_addr`, or "?".
std::string host_of(const mavr::toolchain::Image& image,
                    std::uint32_t byte_addr) {
  const auto blob = mavr::toolchain::SymbolBlob::from_image(image);
  const int idx =
      mavr::toolchain::FunctionIndex(blob.function_addrs, blob.function_sizes)
          .containing(byte_addr);
  return idx >= 0 ? image.functions()[static_cast<std::size_t>(idx)].name
                  : "?";
}

void print_listing(const mavr::toolchain::Image& image, std::uint32_t start,
                   std::uint32_t end) {
  const auto lines = mavr::toolchain::disassemble(
      std::span(image.bytes).subspan(start, end - start), start);
  std::printf("%s", mavr::toolchain::format_listing(lines).c_str());
}

}  // namespace

int main() {
  using namespace mavr;
  const firmware::Firmware& fw = bench::built(firmware::arduplane(true));
  const attack::AttackPlan plan = attack::analyze(fw.image);

  bench::heading("Fig. 4 — stk_move gadget");
  {
    const attack::StkMoveGadget& g = plan.stk;
    // out SPH / out SREG / out SPL / pops / ret:
    const std::uint32_t end = g.entry_byte_addr + 2 * (3 + static_cast<std::uint32_t>(g.pops.size()) + 1);
    std::printf("found in the epilogue of %s (paper found its instance at "
                "0x5d64):\n\n",
                host_of(fw.image, g.entry_byte_addr).c_str());
    print_listing(fw.image, g.entry_byte_addr, end);
    std::printf("\n%u stk_move gadgets available in this image.\n",
                plan.census.stk_move_gadgets);
  }

  bench::heading("Fig. 5 — write_mem_gadget");
  {
    const attack::WriteMemGadget& g = plan.wm;
    const std::uint32_t end = g.store_entry_byte_addr +
                              2 * (3 + static_cast<std::uint32_t>(g.pops.size()) + 1);
    std::printf("found in the store/restore tail of %s (paper found its "
                "instance at 0x1b284):\n\n",
                host_of(fw.image, g.store_entry_byte_addr).c_str());
    print_listing(fw.image, g.store_entry_byte_addr, end);
    std::printf("\npop entry (chain re-entry point): 0x%x\n",
                g.pop_entry_byte_addr);
    std::printf("%u write_mem gadgets available in this image.\n",
                plan.census.write_mem_gadgets);
  }
  return 0;
}
