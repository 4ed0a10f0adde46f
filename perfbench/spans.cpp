#include "spans.hpp"

#include <cstdio>
#include <map>
#include <string_view>

namespace perfbench {

std::vector<LayerTotals> summarize(const std::vector<Span>& spans) {
  std::vector<double> child_ns(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent != kNoParent) {
      child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string_view, LayerTotals> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    LayerTotals& t = by_name[s.name];
    const auto dur = static_cast<double>(s.end_ns - s.start_ns);
    ++t.calls;
    t.total_ns += dur;
    t.self_ns += dur - child_ns[i];
    t.alloc_bytes += static_cast<double>(s.alloc_bytes);
    t.cycles += static_cast<double>(s.cycles);
  }
  std::vector<LayerTotals> out;
  for (auto& [name, t] : by_name) {
    t.name = std::string(name);
    out.push_back(t);
  }
  return out;
}

bool write_spans(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "name\ttrial\tparent\tstart_ns\tend_ns\talloc_bytes\tcycles\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%s\t%llu\t%lld\t%lld\t%lld\t%llu\t%llu\n", s.name,
                 static_cast<unsigned long long>(s.trial),
                 s.parent == kNoParent ? -1LL
                                       : static_cast<long long>(s.parent),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.alloc_bytes),
                 static_cast<unsigned long long>(s.cycles));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
