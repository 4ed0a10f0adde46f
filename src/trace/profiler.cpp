#include "trace/profiler.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace mavr::trace {

Profiler::Profiler(const toolchain::Image& image) {
  std::vector<std::uint32_t> addrs;
  std::vector<std::uint32_t> sizes;
  for (const toolchain::Symbol& fn : image.functions()) {
    if (fn.size == 0) continue;
    stats_.push_back(FunctionStats{
        .name = fn.name, .byte_addr = fn.addr, .size = fn.size});
    addrs.push_back(fn.addr);
    sizes.push_back(fn.size);
  }
  index_ = toolchain::FunctionIndex(addrs, sizes);
}

int Profiler::index_of(std::uint32_t byte_addr) const {
  if (last_index_ >= 0) {
    const FunctionStats& s = stats_[static_cast<std::size_t>(last_index_)];
    if (byte_addr >= s.byte_addr && byte_addr - s.byte_addr < s.size) {
      return last_index_;
    }
  }
  const int idx = index_.containing(byte_addr);
  if (idx >= 0) last_index_ = idx;
  return idx;
}

void Profiler::on_retire(const avr::Cpu& /*cpu*/, std::uint32_t pc_words,
                         const avr::Instr& /*instr*/, std::uint32_t cycles) {
  total_cycles_ += cycles;
  const int idx = index_of(pc_words * 2);
  if (idx < 0) {
    unattributed_cycles_ += cycles;
    return;
  }
  FunctionStats& s = stats_[static_cast<std::size_t>(idx)];
  s.cycles += cycles;
  ++s.instructions;
}

void Profiler::on_call(const avr::Cpu& /*cpu*/, std::uint32_t /*from_words*/,
                       std::uint32_t to_words, std::uint32_t /*ret_words*/) {
  const int idx = index_of(to_words * 2);
  if (idx >= 0) ++stats_[static_cast<std::size_t>(idx)].calls;
}

std::vector<Profiler::FunctionStats> Profiler::by_cycles() const {
  std::vector<FunctionStats> out;
  for (const FunctionStats& s : stats_) {
    if (s.instructions > 0 || s.calls > 0) out.push_back(s);
  }
  std::sort(out.begin(), out.end(),
            [](const FunctionStats& a, const FunctionStats& b) {
              if (a.cycles != b.cycles) return a.cycles > b.cycles;
              return a.byte_addr < b.byte_addr;
            });
  return out;
}

const Profiler::FunctionStats* Profiler::lookup(std::string_view name) const {
  for (const FunctionStats& s : stats_) {
    if (s.name == name) return (s.instructions || s.calls) ? &s : nullptr;
  }
  return nullptr;
}

std::string Profiler::report(std::size_t top_n) const {
  std::ostringstream os;
  char line[160];
  std::snprintf(line, sizeof line, "%-28s %10s %12s %12s %7s\n", "function",
                "calls", "cycles", "instrs", "cyc%");
  os << line;
  const double total =
      total_cycles_ > 0 ? static_cast<double>(total_cycles_) : 1.0;
  std::size_t shown = 0;
  for (const FunctionStats& s : by_cycles()) {
    if (shown++ == top_n) break;
    std::snprintf(line, sizeof line, "%-28s %10llu %12llu %12llu %6.2f%%\n",
                  s.name.c_str(),
                  static_cast<unsigned long long>(s.calls),
                  static_cast<unsigned long long>(s.cycles),
                  static_cast<unsigned long long>(s.instructions),
                  100.0 * static_cast<double>(s.cycles) / total);
    os << line;
  }
  std::snprintf(line, sizeof line, "%-28s %10s %12llu %12s %6.2f%%\n",
                "(outside known functions)", "",
                static_cast<unsigned long long>(unattributed_cycles_), "",
                100.0 * static_cast<double>(unattributed_cycles_) / total);
  os << line;
  return os.str();
}

}  // namespace mavr::trace
