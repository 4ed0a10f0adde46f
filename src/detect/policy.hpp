// Per-function detector policies derived by the static-analysis plane
// (DESIGN.md §15).
//
// The generic detectors in engine.hpp treat the whole image as one
// privilege domain: any RET may land on any call-site successor, and no
// store is ever questioned. The analysis plane (src/analysis) can do
// better — it knows, per function, (a) which I/O registers the function's
// own code can possibly write and (b) which call sites actually call it,
// hence which return addresses its RETs may legitimately pop. A PolicySet
// carries that knowledge in a *position-independent* form:
//
//  * I/O privilege is a bitset over the data-space window [0, 0x200)
//    (register file + I/O + extended I/O — everything below SRAM), keyed
//    by blob function index. RAM addresses never move, so the set needs
//    no relocation.
//  * Return sites are (caller_index, byte offset within caller) pairs:
//    randomization permutes whole function blocks, so the pair survives
//    any permutation and materializes to a concrete flash word once the
//    per-image function addresses are known.
//
// The seam between planes: src/analysis *produces* a PolicySet once per
// container; defense::MasterProcessor *materializes* it against every
// image it programs (fresh permutation → fresh addresses) and loads the
// result into the engine alongside the CFI rebuild. The engine never
// needs to know how the policy was derived.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "toolchain/function_index.hpp"

namespace mavr::detect {

/// Data-space extent the I/O-privilege policy covers: register file, I/O
/// and extended I/O all sit below 0x200 (avr::kExtIoEnd); SRAM above is
/// ordinary memory no policy restricts.
inline constexpr std::uint32_t kPolicyIoSpan = 0x200;

/// Bit per data-space address in [0, kPolicyIoSpan).
using IoBitset = std::array<std::uint64_t, kPolicyIoSpan / 64>;

inline void io_bit_set(IoBitset& bits, std::uint16_t addr) {
  bits[addr / 64] |= std::uint64_t{1} << (addr % 64);
}

inline bool io_bit_test(const IoBitset& bits, std::uint16_t addr) {
  return (bits[addr / 64] >> (addr % 64)) & 1;
}

/// Number of set bits (for tightness reporting/tests).
std::uint32_t io_bit_count(const IoBitset& bits);

/// One legitimate return target of a function, position-independent:
/// the call-site successor at `offset` bytes into blob function
/// `caller_index`.
struct PolicyRetSite {
  std::uint32_t caller_index = 0;
  std::uint32_t offset = 0;

  friend bool operator==(const PolicyRetSite&, const PolicyRetSite&) = default;
};

/// Policy for one blob function.
struct FuncPolicy {
  /// Data-space addresses below kPolicyIoSpan this function may store to.
  IoBitset io_allow{};
  /// Analysis could not bound the function's I/O stores (an indirect store
  /// whose pointer is not provably SRAM): allow everything, never flag.
  bool io_unbounded = false;
  /// Legitimate RET targets. An *empty* set is meaningful — a function
  /// whose RET never executes on a clean flight (e.g. pure gadget
  /// material entered only by a pivot) keeps zero sites, so any return
  /// through it trips the policy.
  std::vector<PolicyRetSite> ret_sites;
  /// Analysis could not bound the return edges: fall back to generic CFI
  /// semantics for this function (any call-site successor).
  bool ret_unbounded = false;
};

/// Per-function policies for one container, keyed by blob function index.
struct PolicySet {
  std::vector<FuncPolicy> functions;

  bool empty() const { return functions.empty(); }
};

/// A PolicySet bound to one concrete image layout: function index ranges
/// for PC lookup and ret sites resolved to absolute flash words. Built by
/// the master on every successful program pass; consumed by the engine's
/// hooks (lookups only, no allocation after construction).
class MaterializedPolicy {
 public:
  MaterializedPolicy() = default;

  /// Binds `policy` to the layout given by the parallel `addrs`/`sizes`
  /// arrays (byte units, one entry per blob function, same order the
  /// PolicySet was derived in). Throws support::PreconditionError when
  /// the shapes disagree.
  static MaterializedPolicy materialize(const PolicySet& policy,
                                        std::span<const std::uint32_t> addrs,
                                        std::span<const std::uint32_t> sizes);

  bool empty() const { return index_.empty(); }

  /// Blob index of the function whose flash range contains `pc_words`,
  /// or -1 when the PC is outside every function (vector table, padding).
  int function_containing(std::uint32_t pc_words) const {
    return index_.containing(pc_words * 2);
  }

  /// Whether function `index` may store to data-space `addr` (< 0x200).
  /// Unbounded functions allow everything.
  bool io_allowed(int index, std::uint32_t addr) const;

  /// Whether a RET inside function `index` may pop flash word
  /// `raw_words`. Unbounded functions defer to the generic CFI check.
  bool ret_allowed(int index, std::uint32_t raw_words) const;
  bool ret_unbounded(int index) const;

 private:
  toolchain::FunctionIndex index_;
  std::vector<IoBitset> io_;            ///< by blob index
  std::vector<std::uint8_t> io_unbounded_;
  std::vector<std::vector<std::uint32_t>> ret_words_;  ///< sorted, unique
  std::vector<std::uint8_t> ret_unbounded_;
};

}  // namespace mavr::detect
