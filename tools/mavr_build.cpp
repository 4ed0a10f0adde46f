// mavr-build — generate an autopilot firmware, run the MAVR preprocessing
// stage and write the flashable container HEX (symbol blob + binary).
//
//   mavr-build <arduplane|arducopter|ardurover|testapp> <out.hex>
//              [--stock] [--vulnerable] [--seed N]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "defense/preprocess.hpp"
#include "firmware/generator.hpp"
#include "firmware/profile.hpp"
#include "support/parse.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: mavr-build <arduplane|arducopter|ardurover|testapp> "
               "<out.hex> [--stock] [--vulnerable] [--seed N]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mavr;
  if (argc < 3) usage();

  bool vulnerable = false;
  bool stock = false;
  std::uint64_t seed_override = 0;
  bool has_seed = false;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--stock") == 0) {
      stock = true;
    } else if (std::strcmp(argv[i], "--vulnerable") == 0) {
      vulnerable = true;
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      const auto seed = support::parse_u64(argv[++i]);
      if (!seed) {
        std::fprintf(stderr, "invalid value for --seed: '%s'\n", argv[i]);
        usage();
      }
      seed_override = *seed;
      has_seed = true;
    } else {
      usage();
    }
  }

  firmware::AppProfile profile;
  const std::string name = argv[1];
  if (name == "arduplane") profile = firmware::arduplane(vulnerable);
  else if (name == "arducopter") profile = firmware::arducopter(vulnerable);
  else if (name == "ardurover") profile = firmware::ardurover(vulnerable);
  else if (name == "testapp") profile = firmware::testapp(vulnerable);
  else usage();
  if (has_seed) profile.seed = seed_override;

  const toolchain::ToolchainOptions options =
      stock ? toolchain::ToolchainOptions::stock()
            : toolchain::ToolchainOptions::mavr();
  const firmware::Firmware fw = firmware::generate(profile, options);

  const std::string hex = defense::preprocess_to_hex(fw.image);
  std::ofstream out(argv[2], std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", argv[2]);
    return 1;
  }
  out << hex;

  std::printf("%s: %u bytes of code, %zu functions, %zu pointer slots, "
              "%s flags%s -> %s (%zu bytes of HEX)\n",
              profile.name.c_str(), fw.image.size_bytes(),
              fw.image.function_count(), fw.image.pointer_slots.size(),
              stock ? "stock" : "MAVR", vulnerable ? ", VULNERABLE" : "",
              argv[2], hex.size());
  return 0;
}
