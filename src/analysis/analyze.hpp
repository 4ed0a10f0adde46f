// Whole-image static analysis: CFG + dataflow + gadget reachability +
// derived detector policies, with content-addressed caching (DESIGN.md §15).
//
// The plane decomposes per *blob function*. Everything computed about one
// function is position-independent (offsets within the function, callees
// named by blob index), so the per-function work survives MAVR's
// randomization unchanged: a rerandomized image permutes block addresses
// and patches CALL/JMP target words, but every function's *canonical*
// bytes — targets masked out, re-expressed as (callee index, offset) —
// are identical. canonical_function_digest() is therefore a cache key
// that hits block-by-block across permutations (bench/analysis_throughput
// measures the resulting cold/cached gap).
//
// Three passes run over the per-function records:
//  * taint/dataflow — BFS over call edges, tail jumps, indirect-call
//    dispatch and RAM def/use pairs from the functions that read the
//    MAVLink RX register; every gadget site inherits the depth of its
//    containing function as weight 1/(1+depth) (weighted gadget census);
//  * privilege — each function's provable I/O-store footprint becomes a
//    per-function store policy (local constant propagation; an indirect
//    store not provably SRAM- or stack-targeted makes the function
//    io-unbounded, i.e. exempt);
//  * return edges — each function's legitimate RET targets are the
//    successors of the call sites that call it, closed over tail jumps
//    and indirect dispatch. A strict subset of the generic CFI set, so
//    the derived policy detects at least everything generic CFI does.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "analysis/cache.hpp"
#include "analysis/cfg.hpp"
#include "attack/gadgets.hpp"
#include "detect/policy.hpp"
#include "support/bytes.hpp"
#include "support/sha256.hpp"
#include "toolchain/function_index.hpp"
#include "toolchain/image.hpp"

namespace mavr::analysis {

struct AnalyzeOptions {
  /// Data-space addresses whose *reads* make a function a taint source.
  /// Default: UDR0, the MAVLink RX register (firmware::Generator::kUartData).
  std::vector<std::uint16_t> taint_sources = {0xC6};
};

/// One call instruction, position-independent.
struct FuncCall {
  std::uint32_t offset = 0;      ///< of the call, within the caller
  std::uint32_t ret_offset = 0;  ///< of the instruction after it
  std::uint8_t indirect = 0;     ///< icall/eicall
  std::int32_t callee = -1;      ///< blob index; -1 = outside every function
  /// Byte offset into the callee; when callee == -1, the absolute target
  /// (which is stable: only function blocks move under randomization).
  std::uint32_t callee_offset = 0;
};

/// A jmp/rjmp/branch leaving the function (shared-tail jumps).
struct FuncTailJump {
  std::uint32_t offset = 0;
  std::int32_t callee = -1;
  std::uint32_t callee_offset = 0;
};

/// One gadget entry point within the function.
struct FuncGadget {
  std::uint32_t offset = 0;
  attack::GadgetKind kind = attack::GadgetKind::kRet;
  std::uint8_t pop_count = 0;
};

/// Everything the analysis knows about one function, in the
/// position-independent form the cache stores. The unit of reuse.
struct FuncRecord {
  std::uint32_t size = 0;
  std::uint32_t n_blocks = 0;
  std::uint32_t n_edges = 0;
  std::uint8_t indirect_jump_sites = 0;  ///< ijmp/eijmp count (saturates)
  /// CFG ends in fall-through/truncation: control can leave the function
  /// without a terminator, so no per-function policy derived from it is
  /// layout-stable. Never set for well-formed generated firmware.
  std::uint8_t open_ended = 0;
  std::uint8_t io_unbounded = 0;  ///< a store's target was not provable
  detect::IoBitset io_writes{};   ///< provable stores below 0x200
  detect::IoBitset io_reads{};    ///< provable loads below 0x200
  std::vector<FuncCall> calls;
  std::vector<FuncTailJump> tail_jumps;
  std::vector<std::uint16_t> ram_stores;  ///< provable SRAM stores, sorted
  std::vector<std::uint16_t> ram_loads;   ///< provable SRAM loads, sorted
  std::vector<FuncGadget> gadgets;        ///< ascending (offset, kind)
  attack::GadgetCensus census;            ///< of this function's bytes

  support::Bytes serialize() const;
  /// Throws support::Error on malformed bytes.
  static FuncRecord deserialize(std::span<const std::uint8_t> data);
};

/// Permutation-invariant digest of one function: its bytes with every
/// CALL/JMP target and pointer-slot value masked out, plus the masked
/// material re-expressed position-independently ((callee index, offset)
/// per site). Two layouts of the same program give every function the
/// same digest — the block-level cache key.
support::Sha256Digest canonical_function_digest(
    std::span<const std::uint8_t> image, std::uint32_t addr,
    std::uint32_t size, const toolchain::FunctionIndex& index,
    std::span<const toolchain::PointerSlot> slots);

/// Analyzes one function body (already sliced out of the image) into its
/// position-independent record. `addr` only labels the CFG base.
FuncRecord analyze_function(std::span<const std::uint8_t> body,
                            std::uint32_t addr,
                            const toolchain::FunctionIndex& index);

/// One gadget site ranked by taint reachability.
struct RankedGadget {
  std::uint32_t byte_addr = 0;
  attack::GadgetKind kind = attack::GadgetKind::kRet;
  std::uint8_t pop_count = 0;
  std::int32_t func = -1;   ///< containing function; -1 = padding/gap
  std::int32_t depth = -1;  ///< taint BFS depth; -1 = unreachable
  double weight = 0.0;      ///< 1/(1+depth), 0 when unreachable
};

/// Whole-image analysis result.
struct AnalysisReport {
  support::Sha256Digest image_digest{};
  std::uint32_t text_end = 0;
  std::uint32_t n_functions = 0;
  std::uint32_t n_blocks = 0;
  std::uint32_t n_edges = 0;
  std::uint32_t call_edges = 0;           ///< resolved direct call edges
  std::uint32_t indirect_call_sites = 0;  ///< icall/eicall instructions
  std::uint32_t indirect_jump_sites = 0;  ///< ijmp/eijmp instructions
  std::uint32_t address_taken = 0;  ///< functions reachable via pointer slots
  std::vector<std::int32_t> taint_depth;  ///< per function; -1 unreachable
  std::uint32_t tainted_functions = 0;
  /// Assembled from the per-function records plus the inter-function gaps;
  /// equals a whole-image attack::GadgetFinder census (pinned by test).
  attack::GadgetCensus census;
  std::vector<RankedGadget> gadgets;  ///< ascending (byte_addr, kind)
  double weighted_total = 0.0;
  double weighted_ret = 0.0;
  double weighted_stk_move = 0.0;
  double weighted_write_mem = 0.0;
  detect::PolicySet policy;       ///< per-function derived policy
  std::uint32_t io_bounded = 0;   ///< functions with a closed I/O set
  std::uint32_t ret_bounded = 0;  ///< functions with closed return edges
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

/// Stable text rendering of everything semantic in a report (cache
/// counters excluded): byte-identical across cold and cached runs of the
/// same image — the bit-identity oracle the bench and tests compare.
std::string report_text(const AnalysisReport& report);

/// Machine-readable JSON (for mavr-analyze --json and the bench harness).
std::string report_json(const AnalysisReport& report);

/// The analysis plane's entry point. Stateless apart from the optional
/// cache; single-threaded by design (runs once per container, before any
/// trial fan-out).
class Analyzer {
 public:
  explicit Analyzer(AnalysisCache* cache = nullptr,
                    AnalyzeOptions options = {});

  AnalysisReport analyze(std::span<const std::uint8_t> image,
                         const toolchain::SymbolBlob& blob) const;

  AnalysisReport analyze(const toolchain::Image& image) const {
    return analyze(image.bytes, toolchain::SymbolBlob::from_image(image));
  }

 private:
  AnalysisCache* cache_;
  AnalyzeOptions options_;
  /// Decoded-record memo over the cache's serialized bytes: a batch run
  /// (many rerandomized images through one Analyzer) pays deserialization
  /// once per distinct function, not once per image. Grows with the set
  /// of distinct canonical digests seen, like the cache itself.
  mutable std::map<support::Sha256Digest, FuncRecord> decoded_;
};

}  // namespace mavr::analysis
