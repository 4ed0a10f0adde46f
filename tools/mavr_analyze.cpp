// mavr-analyze — batch static analysis of MAVR container HEX files:
// whole-image CFG, taint-ranked gadget census and the derived per-function
// detector policy (DESIGN.md §15), with an optional content-addressed
// analysis cache shared across images. Rerandomized builds of the same
// program hit the cache function-by-function.
//
//   mavr-analyze [--cache <file>] [--json] [--taint-source <hex>]...
//                <container.hex>...
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <vector>

#include "analysis/analyze.hpp"
#include "defense/preprocess.hpp"
#include "support/error.hpp"
#include "support/parse.hpp"
#include "toolchain/intelhex.hpp"

namespace {

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: mavr-analyze [--cache <file>] [--json] "
               "[--taint-source <hex>]... <container.hex>...\n");
  std::exit(2);
}

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

}  // namespace

int main(int argc, char** argv) {
  using namespace mavr;

  const char* cache_path = nullptr;
  bool json = false;
  analysis::AnalyzeOptions options;
  bool custom_sources = false;
  std::vector<const char*> inputs;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--cache") == 0 && i + 1 < argc) {
      cache_path = argv[++i];
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--taint-source") == 0 && i + 1 < argc) {
      if (!custom_sources) {
        options.taint_sources.clear();
        custom_sources = true;
      }
      const char* v = argv[++i];
      const auto source = support::parse_hex_in(v, 0, 0xFFFF);
      if (!source) {
        std::fprintf(stderr, "invalid value for --taint-source: '%s'\n", v);
        usage();
      }
      options.taint_sources.push_back(static_cast<std::uint16_t>(*source));
    } else if (argv[i][0] == '-') {
      usage();
    } else {
      inputs.push_back(argv[i]);
    }
  }
  if (inputs.empty()) usage();

  std::unique_ptr<analysis::AnalysisCache> cache;
  cache = cache_path != nullptr
              ? std::make_unique<analysis::AnalysisCache>(cache_path)
              : std::make_unique<analysis::AnalysisCache>();
  const analysis::Analyzer analyzer(cache.get(), options);

  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  for (const char* path : inputs) {
    try {
      const toolchain::HexImage hex =
          toolchain::intel_hex_decode(read_file(path));
      const defense::Container container = defense::parse_container(hex.data);
      const analysis::AnalysisReport report =
          analyzer.analyze(container.image, container.blob);
      hits += report.cache_hits;
      misses += report.cache_misses;
      if (json) {
        std::printf("%s", analysis::report_json(report).c_str());
      } else {
        std::printf("== %s ==\n%s", path,
                    analysis::report_text(report).c_str());
      }
    } catch (const support::Error& e) {
      std::fprintf(stderr, "%s: %s\n", path, e.what());
      return 1;
    }
  }
  if (!json) {
    std::fprintf(stderr, "cache: %llu hits, %llu misses",
                 static_cast<unsigned long long>(hits),
                 static_cast<unsigned long long>(misses));
    if (cache_path != nullptr) {
      std::fprintf(stderr,
                   " (%llu records loaded, %llu rejected)",
                   static_cast<unsigned long long>(
                       cache->load_stats().records_loaded),
                   static_cast<unsigned long long>(
                       cache->load_stats().records_rejected));
    }
    std::fprintf(stderr, "\n");
  }
  return 0;
}
