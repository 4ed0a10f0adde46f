// Which function holds an address: the binary search the master processor
// runs over the symbol table for CALL/JMP targets that land inside a
// function (paper §VI-B3), and the one place every tool asks it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

namespace mavr::toolchain {

/// Address → (function, offset) resolver over one layout.
///
/// Indices are positions in the arrays the index was built from. For a
/// randomized layout those are in blob order, not address order — keeping
/// blob indices stable across layouts is what makes the analysis records
/// and policies permutation-invariant — so the index keeps its own
/// address-sorted array.
class FunctionIndex {
 public:
  struct Entry {
    std::uint32_t start = 0;  ///< byte address, inclusive
    std::uint32_t end = 0;    ///< byte address, exclusive
    std::uint32_t index = 0;  ///< position in the arrays given
  };

  FunctionIndex() = default;

  /// Indexes function i as [addrs[i], addrs[i] + sizes[i]) in bytes.
  /// Throws support::PreconditionError when the arrays are not parallel.
  FunctionIndex(std::span<const std::uint32_t> addrs,
                std::span<const std::uint32_t> sizes);

  /// Index of the function whose range holds byte address `addr`, or -1.
  /// Writes the offset into the function to `*offset` when given.
  int containing(std::uint32_t addr, std::uint32_t* offset = nullptr) const {
    const auto it = std::upper_bound(
        entries_.begin(), entries_.end(), addr,
        [](std::uint32_t a, const Entry& e) { return a < e.start; });
    if (it == entries_.begin() || addr >= (it - 1)->end) return -1;
    if (offset != nullptr) *offset = addr - (it - 1)->start;
    return static_cast<int>((it - 1)->index);
  }

  /// Every function, ascending by start address.
  const std::vector<Entry>& entries() const { return entries_; }
  bool empty() const { return entries_.empty(); }

 private:
  std::vector<Entry> entries_;
};

}  // namespace mavr::toolchain
