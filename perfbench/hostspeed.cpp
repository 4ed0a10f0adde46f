#include "hostspeed.hpp"

#include <cmath>

#include "spans.hpp"

namespace perfbench {
namespace {

/// The reference host: round figures of the probes' costs, in ns per step,
/// on the machine of the baseline in README.md.
constexpr double kComputeRefNs = 3.0;
constexpr double kMemoryRefNs = 13.0;

constexpr int kComputeSteps = 200000;
constexpr int kMemorySteps = 50000;
constexpr int kPasses = 3;

volatile std::uint64_t g_sink = 0;

inline void xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
}

}  // namespace

HostSpeed::HostSpeed()
    : table_(8192), buffer_(kBufferBytes / sizeof(std::uint32_t), 1) {}

void HostSpeed::sample() {
  for (int pass = 0; pass < kPasses; ++pass) {
    std::uint64_t x = 88172645463325252ull;
    std::uint32_t acc = 0;
    std::int64_t t0 = now_ns();
    for (int i = 0; i < kComputeSteps; ++i) {
      xorshift(x);
      const auto idx = static_cast<std::uint32_t>(x >> 51);  // 13 bits
      acc += table_[idx];
      if (acc & 1) acc ^= static_cast<std::uint32_t>(x);
      table_[idx ^ 1] = acc;
    }
    compute_ns_.push_back(static_cast<double>(now_ns() - t0) / kComputeSteps);

    t0 = now_ns();
    for (int i = 0; i < kMemorySteps; ++i) {
      xorshift(x);
      buffer_[x >> 42] += acc;  // 22 bits: the whole 16 MiB buffer
    }
    memory_ns_.push_back(static_cast<double>(now_ns() - t0) / kMemorySteps);
    g_sink = g_sink + acc;
  }
}

double HostSpeed::compute_ns() const { return median(compute_ns_); }

double HostSpeed::memory_ns() const { return median(memory_ns_); }

double HostSpeed::slowdown() const {
  if (compute_ns_.empty()) return 1;
  return std::sqrt(compute_ns() / kComputeRefNs * memory_ns() / kMemoryRefNs);
}

}  // namespace perfbench
