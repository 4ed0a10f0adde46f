// mavr-randomize — run the master processor's randomize+patch pass offline
// on a container HEX, the way the MAVR hardware does it at boot.
//
//   mavr-randomize <container.hex> <out.hex> [--seed N] [--stats]
//
// The output is a plain firmware HEX (what gets programmed into the
// application processor); it contains no symbol information.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "defense/patcher.hpp"
#include "defense/preprocess.hpp"
#include "support/error.hpp"
#include "support/parse.hpp"
#include "toolchain/intelhex.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: mavr-randomize <container.hex> <out.hex> "
               "[--seed N] [--stats]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace mavr;
  if (argc < 3) return usage();
  std::uint64_t seed = 1;
  bool stats = false;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      const auto parsed = support::parse_u64(argv[++i]);
      if (!parsed) {
        std::fprintf(stderr, "invalid value for --seed: '%s'\n", argv[i]);
        return usage();
      }
      seed = *parsed;
    } else if (std::strcmp(argv[i], "--stats") == 0) {
      stats = true;
    }
  }

  std::ifstream in(argv[1], std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", argv[1]);
    return 1;
  }
  std::ostringstream ss;
  ss << in.rdbuf();

  const toolchain::HexImage hex = toolchain::intel_hex_decode(ss.str());
  const defense::Container container = defense::parse_container(hex.data);

  support::Rng rng(seed);
  const defense::RandomizeResult result =
      defense::randomize_image(container.image, container.blob, rng);

  std::ofstream out(argv[2], std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", argv[2]);
    return 1;
  }
  out << toolchain::intel_hex_encode(result.image);

  std::printf("randomized %zu-byte image with seed %llu -> %s\n",
              result.image.size(),
              static_cast<unsigned long long>(seed), argv[2]);
  if (stats) {
    std::printf("  moved functions:       %u\n", result.moved_functions);
    std::printf("  patched CALL/JMP:      %u\n", result.patched_abs_jumps);
    std::printf("  mid-function targets:  %u (binary-search cases)\n",
                result.mid_function_targets);
    std::printf("  patched pointer slots: %u\n", result.patched_pointers);
  }
  return 0;
} catch (const mavr::support::Error& e) {
  std::fprintf(stderr, "%s: %s\n", argv[1], e.what());
  return 1;
}
