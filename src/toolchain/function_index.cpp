#include "toolchain/function_index.hpp"

#include <tuple>

#include "support/error.hpp"

namespace mavr::toolchain {

FunctionIndex::FunctionIndex(std::span<const std::uint32_t> addrs,
                             std::span<const std::uint32_t> sizes) {
  MAVR_REQUIRE(addrs.size() == sizes.size(),
               "address/size arrays must be parallel");
  entries_.reserve(addrs.size());
  for (std::size_t i = 0; i < addrs.size(); ++i) {
    // Saturate rather than wrap: a function cannot end past the address
    // space, whatever size a corrupt table claims.
    const std::uint64_t end = std::uint64_t{addrs[i]} + sizes[i];
    entries_.push_back({addrs[i],
                        static_cast<std::uint32_t>(
                            std::min<std::uint64_t>(end, UINT32_MAX)),
                        static_cast<std::uint32_t>(i)});
  }
  // Empty ranges sort before a non-empty one at the same start, so the
  // upper-bound probe in containing() lands on the one that can hold it.
  const auto by_start = [](const Entry& a, const Entry& b) {
    return std::tie(a.start, a.end, a.index) <
           std::tie(b.start, b.end, b.index);
  };
  if (!std::is_sorted(entries_.begin(), entries_.end(), by_start)) {
    std::sort(entries_.begin(), entries_.end(), by_start);
  }
}

}  // namespace mavr::toolchain
