// mavr-objdump — inspect a MAVR container HEX: symbol table, pointer
// slots, gadget census, optional per-function disassembly or CFG.
//
//   mavr-objdump <container.hex> [--symbols] [--gadgets]
//                [--disasm <byte-addr-hex>] [--cfg [byte-addr-hex]]
//                [--headers]
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string_view>
#include <vector>

#include "analysis/cfg.hpp"
#include "attack/gadgets.hpp"
#include "defense/preprocess.hpp"
#include "support/error.hpp"
#include "support/parse.hpp"
#include "toolchain/disasm.hpp"
#include "toolchain/function_index.hpp"
#include "toolchain/intelhex.hpp"

namespace {

std::string read_file(const char* path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path);
    std::exit(1);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

int usage() {
  std::fprintf(stderr,
               "usage: mavr-objdump <container.hex> [--symbols] "
               "[--gadgets] [--disasm <byte-addr-hex>] "
               "[--cfg [byte-addr-hex]] [--headers]\n");
  return 2;
}

/// One requested dump, in command-line order. `addr` is the byte address
/// --disasm needs and --cfg may narrow to.
struct Dump {
  std::string_view flag;
  std::optional<std::uint32_t> addr;
};

}  // namespace

int main(int argc, char** argv) try {
  using namespace mavr;
  if (argc < 2) return usage();

  // Every flag value is checked before the container is read.
  std::vector<Dump> dumps;
  for (int i = 2; i < argc; ++i) {
    const std::string_view flag = argv[i];
    const bool disasm = flag == "--disasm" && i + 1 < argc;
    const bool cfg_addr =
        flag == "--cfg" && i + 1 < argc && argv[i + 1][0] != '-';
    if (disasm || cfg_addr) {
      const char* v = argv[++i];
      const auto addr = support::parse_hex_in(v, 0, UINT32_MAX);
      if (!addr) {
        std::fprintf(stderr, "invalid value for %s: '%s'\n", argv[i - 1], v);
        return usage();
      }
      dumps.push_back({flag, static_cast<std::uint32_t>(*addr)});
    } else if (flag == "--headers" || flag == "--symbols" ||
               flag == "--gadgets" || flag == "--cfg") {
      dumps.push_back({flag, std::nullopt});
    }
  }

  const toolchain::HexImage hex = toolchain::intel_hex_decode(read_file(argv[1]));
  const defense::Container container = defense::parse_container(hex.data);
  const toolchain::SymbolBlob& blob = container.blob;
  const toolchain::FunctionIndex index(blob.function_addrs,
                                       blob.function_sizes);
  const auto body = [&](std::size_t k) {
    return std::span<const std::uint8_t>(container.image)
        .subspan(blob.function_addrs[k], blob.function_sizes[k]);
  };
  // The CFG text is stable (offsets only change when the code does), so
  // the golden-file tests diff it directly.
  const auto print_cfg = [&](std::size_t k) {
    std::printf("func %zu @0x%X size=%u\n%s", k, blob.function_addrs[k],
                blob.function_sizes[k],
                analysis::format_cfg(analysis::build_region_cfg(
                                         body(k), blob.function_addrs[k]))
                    .c_str());
  };

  for (const Dump& dump : dumps) {
    if (dump.flag == "--headers") {
      std::printf("image: %zu bytes, text_end 0x%X, first movable 0x%X, "
                  "%zu functions, %zu pointer slots, LDI code pointers: "
                  "%s\n",
                  container.image.size(), blob.text_end, blob.first_movable,
                  blob.function_addrs.size(), blob.pointer_slots.size(),
                  blob.has_ldi_code_pointers ? "yes (UNRANDOMIZABLE)"
                                             : "no");
    } else if (dump.flag == "--symbols") {
      std::printf("%-10s %-10s\n", "address", "size");
      for (std::size_t k = 0; k < blob.function_addrs.size(); ++k) {
        std::printf("0x%-8X %u\n", blob.function_addrs[k],
                    blob.function_sizes[k]);
      }
    } else if (dump.flag == "--gadgets") {
      attack::GadgetFinder finder(container.image, blob.text_end);
      const attack::GadgetCensus& c = finder.census();
      std::printf("gadgets: %u total (%u ret-sequences, %u stk_move, "
                  "%u write_mem, %u pop-chains)\n",
                  c.total(), c.ret_gadgets, c.stk_move_gadgets,
                  c.write_mem_gadgets, c.pop_chain_gadgets);
      if (!finder.stk_moves().empty()) {
        std::printf("first stk_move entry:  0x%X\n",
                    finder.stk_moves()[0].entry_byte_addr);
      }
      if (!finder.write_mems().empty()) {
        std::printf("first write_mem entry: 0x%X (pops at 0x%X)\n",
                    finder.write_mems()[0].store_entry_byte_addr,
                    finder.write_mems()[0].pop_entry_byte_addr);
      }
    } else if (dump.flag == "--cfg" && !dump.addr) {
      for (std::size_t k = 0; k < blob.function_addrs.size(); ++k) {
        print_cfg(k);
      }
    } else {
      // --disasm, or --cfg narrowed to one function: the one holding the
      // address.
      const int found = index.containing(*dump.addr);
      if (found < 0) {
        std::fprintf(stderr, "0x%X is not inside a function\n", *dump.addr);
        return 1;
      }
      const auto k = static_cast<std::size_t>(found);
      if (dump.flag == "--cfg") {
        print_cfg(k);
      } else {
        const auto lines =
            toolchain::disassemble(body(k), blob.function_addrs[k]);
        std::printf("%s", toolchain::format_listing(lines).c_str());
      }
    }
  }
  if (dumps.empty()) {
    std::printf("container ok: %zu-byte image, %zu functions "
                "(use --headers/--symbols/--gadgets/--disasm)\n",
                container.image.size(), blob.function_addrs.size());
  }
  return 0;
} catch (const mavr::support::Error& e) {
  std::fprintf(stderr, "%s: %s\n", argv[1], e.what());
  return 1;
}
