#include "detect/policy.hpp"

#include <algorithm>
#include <bit>

#include "support/error.hpp"

namespace mavr::detect {

std::uint32_t io_bit_count(const IoBitset& bits) {
  std::uint32_t count = 0;
  for (std::uint64_t word : bits) count += std::popcount(word);
  return count;
}

MaterializedPolicy MaterializedPolicy::materialize(
    const PolicySet& policy, std::span<const std::uint32_t> addrs,
    std::span<const std::uint32_t> sizes) {
  MAVR_REQUIRE(policy.functions.size() == addrs.size() &&
                   addrs.size() == sizes.size(),
               "policy/address/size arrays must be parallel");
  MaterializedPolicy out;
  const std::size_t n = policy.functions.size();
  out.index_ = toolchain::FunctionIndex(addrs, sizes);
  out.io_.resize(n);
  out.io_unbounded_.resize(n);
  out.ret_words_.resize(n);
  out.ret_unbounded_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const FuncPolicy& fp = policy.functions[i];
    out.io_[i] = fp.io_allow;
    out.io_unbounded_[i] = fp.io_unbounded ? 1 : 0;
    out.ret_unbounded_[i] = fp.ret_unbounded ? 1 : 0;
    std::vector<std::uint32_t>& words = out.ret_words_[i];
    words.reserve(fp.ret_sites.size());
    for (const PolicyRetSite& site : fp.ret_sites) {
      MAVR_REQUIRE(site.caller_index < addrs.size(),
                   "ret site names a caller outside the policy");
      words.push_back((addrs[site.caller_index] + site.offset) / 2);
    }
    std::sort(words.begin(), words.end());
    words.erase(std::unique(words.begin(), words.end()), words.end());
  }
  return out;
}

bool MaterializedPolicy::io_allowed(int index, std::uint32_t addr) const {
  if (index < 0 || static_cast<std::size_t>(index) >= io_.size()) return true;
  if (io_unbounded_[static_cast<std::size_t>(index)]) return true;
  if (addr >= kPolicyIoSpan) return true;
  return io_bit_test(io_[static_cast<std::size_t>(index)],
                     static_cast<std::uint16_t>(addr));
}

bool MaterializedPolicy::ret_allowed(int index,
                                     std::uint32_t raw_words) const {
  if (index < 0 || static_cast<std::size_t>(index) >= ret_words_.size()) {
    return true;
  }
  const std::size_t i = static_cast<std::size_t>(index);
  if (ret_unbounded_[i]) return true;
  return std::binary_search(ret_words_[i].begin(), ret_words_[i].end(),
                            raw_words);
}

bool MaterializedPolicy::ret_unbounded(int index) const {
  if (index < 0 || static_cast<std::size_t>(index) >= ret_unbounded_.size()) {
    return true;
  }
  return ret_unbounded_[static_cast<std::size_t>(index)] != 0;
}

}  // namespace mavr::detect
