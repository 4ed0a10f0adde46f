// In-memory span recorder for the benchmark's traced mode.
//
// Spans are recorded from the benchmark's own code, around each call it
// makes into a layer of the simulator (sim, defense, avr, ...). A span
// remembers its parent, so a layer's self time is its duration minus the
// part its children cover. Spans stay in memory while trials run and are
// written out once, when the benchmark ends.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Bytes the calling thread has requested from global operator new since it
/// started (alloc.cpp replaces the global allocation functions).
std::uint64_t thread_alloc_bytes();

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median of a sample; 0 for an empty one.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Span {
  const char* name = nullptr;  ///< "layer.op"; a string literal
  std::uint32_t parent = 0;    ///< index into the log; kNoParent for roots
  std::uint64_t trial = 0;     ///< trial the span belongs to
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t alloc_bytes = 0;  ///< operator new bytes inside the span
  std::uint64_t cycles = 0;       ///< simulated cycles (avr.run only)
};

inline constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;

/// Single-threaded span log: the traced run executes at jobs 1.
class SpanLog {
 public:
  SpanLog() { spans_.reserve(1 << 16); }

  std::uint32_t open(const char* name, std::uint64_t trial) {
    const std::uint32_t parent = stack_.empty() ? kNoParent : stack_.back();
    const auto index = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back(Span{name, parent, trial, 0, 0, 0, 0});
    stack_.push_back(index);
    // Read the counters last, so the log's own growth stays outside.
    spans_.back().alloc_bytes = thread_alloc_bytes();
    spans_.back().start_ns = now_ns();
    return index;
  }

  void close(std::uint32_t index, std::uint64_t cycles) {
    Span& s = spans_[index];
    s.end_ns = now_ns();
    s.alloc_bytes = thread_alloc_bytes() - s.alloc_bytes;
    s.cycles = cycles;
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }
  void clear() {
    spans_.clear();
    stack_.clear();
  }

 private:
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

/// Opens a span for the enclosing scope. Set `cycles` before it closes to
/// attach the simulated cycles run inside it.
class Scope {
 public:
  Scope(SpanLog& log, const char* name, std::uint64_t trial)
      : log_(log), index_(log.open(name, trial)) {}
  ~Scope() { log_.close(index_, cycles); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::uint64_t cycles = 0;

 private:
  SpanLog& log_;
  std::uint32_t index_;
};

/// Per-name totals over a span log. Self time is a span's duration minus
/// the durations of its direct children.
struct LayerTotals {
  std::string name;
  std::uint64_t calls = 0;
  double self_ns = 0;
  double total_ns = 0;
  double alloc_bytes = 0;
  double cycles = 0;
};

std::vector<LayerTotals> summarize(const std::vector<Span>& spans);

/// Writes one tab-separated line per span: name, trial, parent, start_ns,
/// end_ns, alloc_bytes, cycles. Returns false when the file cannot be written.
bool write_spans(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench
