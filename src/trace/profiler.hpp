// Per-function cycle/call-count profiler keyed off the firmware symbol
// table. Attaches as a Tracer; every retired instruction's cycles are
// attributed to the function whose flash range contains it, so a run ends
// with the same flat profile a sampling profiler would converge to —
// except exact.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "avr/cpu.hpp"
#include "toolchain/function_index.hpp"
#include "toolchain/image.hpp"

namespace mavr::trace {

class Profiler : public avr::Tracer {
 public:
  struct FunctionStats {
    std::string name;
    std::uint32_t byte_addr = 0;  ///< flash byte address of the function
    std::uint32_t size = 0;       ///< bytes
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t calls = 0;  ///< CALL-family entries targeting this function
  };

  /// Copies the function symbol ranges out of `image`; the image itself
  /// need not outlive the profiler.
  explicit Profiler(const toolchain::Image& image);

  /// All functions that executed at least one instruction, heaviest (by
  /// cycles) first.
  std::vector<FunctionStats> by_cycles() const;

  /// Stats for one function, or nullptr when unknown / never executed.
  const FunctionStats* lookup(std::string_view name) const;

  /// Cycles retired at flash addresses outside every known function
  /// (vector-table stubs, gadget-chain excursions past symbol ranges).
  std::uint64_t unattributed_cycles() const { return unattributed_cycles_; }
  std::uint64_t total_cycles() const { return total_cycles_; }

  /// Human-readable table of the `top_n` heaviest functions.
  std::string report(std::size_t top_n = 20) const;

  // --- Tracer hooks ----------------------------------------------------------
  void on_retire(const avr::Cpu& cpu, std::uint32_t pc_words,
                 const avr::Instr& instr, std::uint32_t cycles) override;
  void on_call(const avr::Cpu& cpu, std::uint32_t from_words,
               std::uint32_t to_words, std::uint32_t ret_words) override;

 private:
  /// Index into stats_ for the function containing `byte_addr`, or -1.
  int index_of(std::uint32_t byte_addr) const;

  std::vector<FunctionStats> stats_;
  toolchain::FunctionIndex index_;  ///< over stats_
  mutable int last_index_ = -1;  ///< cache: consecutive pcs share a function
  std::uint64_t unattributed_cycles_ = 0;
  std::uint64_t total_cycles_ = 0;
};

}  // namespace mavr::trace
