// The analysis plane's headline contracts on the stock test application
// (DESIGN.md §15): the whole-image report's census equals the attacker's
// own GadgetFinder census, the derived per-function policy is strictly
// tighter than the generic whole-image masks, and a rerandomized layout
// hits the content-addressed cache function-by-function while reproducing
// the cold analysis bit for bit.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/analyze.hpp"
#include "attack/gadgets.hpp"
#include "defense/patcher.hpp"
#include "detect/policy.hpp"
#include "firmware/generator.hpp"
#include "support/rng.hpp"
#include "toolchain/image.hpp"

namespace mavr {
namespace {

using analysis::AnalysisReport;
using detect::io_bit_count;
using detect::IoBitset;

const firmware::Firmware& fw() {
  static const firmware::Firmware firmware = firmware::generate(
      firmware::testapp(/*vulnerable=*/true), toolchain::ToolchainOptions::mavr());
  return firmware;
}

const toolchain::SymbolBlob& blob() {
  static const toolchain::SymbolBlob b =
      toolchain::SymbolBlob::from_image(fw().image);
  return b;
}

AnalysisReport analyze_base() {
  analysis::AnalysisCache cache;
  return analysis::Analyzer(&cache).analyze(fw().image.bytes, blob());
}

// --- Whole-image report pins -------------------------------------------------

TEST(AnalysisPolicy, ReportPinnedOnTestapp) {
  const AnalysisReport r = analyze_base();
  EXPECT_EQ(r.n_functions, 96u);
  EXPECT_EQ(r.census.ret_gadgets, 96u);
  EXPECT_EQ(r.census.stk_move_gadgets, 23u);
  EXPECT_EQ(r.census.write_mem_gadgets, 4u);
  EXPECT_EQ(r.census.pop_chain_gadgets, 20u);
  EXPECT_EQ(r.census.total(), 123u);
  EXPECT_EQ(r.gadgets.size(), r.census.total());
  EXPECT_EQ(r.tainted_functions, 63u);
  EXPECT_EQ(r.io_bounded, 87u);
  EXPECT_EQ(r.ret_bounded, 96u);
}

TEST(AnalysisPolicy, CensusEqualsWholeImageGadgetFinder) {
  // The per-function records plus the inter-function gap sweep must add up
  // to exactly what one flat GadgetFinder pass over the image finds — the
  // decomposition may not invent or lose gadget material.
  const AnalysisReport r = analyze_base();
  const attack::GadgetFinder finder(fw().image);
  const attack::GadgetCensus& flat = finder.census();
  EXPECT_EQ(r.census.ret_gadgets, flat.ret_gadgets);
  EXPECT_EQ(r.census.stk_move_gadgets, flat.stk_move_gadgets);
  EXPECT_EQ(r.census.write_mem_gadgets, flat.write_mem_gadgets);
  EXPECT_EQ(r.census.pop_chain_gadgets, flat.pop_chain_gadgets);
  // Site-by-site: same addresses, same kinds, in the same order.
  ASSERT_EQ(r.gadgets.size(), finder.sites().size());
  for (std::size_t i = 0; i < r.gadgets.size(); ++i) {
    EXPECT_EQ(r.gadgets[i].byte_addr, finder.sites()[i].byte_addr);
    EXPECT_EQ(r.gadgets[i].kind, finder.sites()[i].kind);
    EXPECT_EQ(r.gadgets[i].pop_count, finder.sites()[i].pop_count);
  }
}

TEST(AnalysisPolicy, TaintRankingIsCoherent) {
  const AnalysisReport r = analyze_base();
  ASSERT_EQ(r.taint_depth.size(), r.n_functions);
  double weighted = 0.0;
  std::uint32_t reachable = 0;
  for (const analysis::RankedGadget& g : r.gadgets) {
    if (g.depth >= 0) {
      ++reachable;
      EXPECT_DOUBLE_EQ(g.weight, 1.0 / (1.0 + g.depth));
      ASSERT_GE(g.func, 0);
      EXPECT_EQ(g.depth, r.taint_depth[static_cast<std::size_t>(g.func)]);
    } else {
      EXPECT_EQ(g.weight, 0.0);
    }
    weighted += g.weight;
  }
  EXPECT_GT(reachable, 0u);
  EXPECT_LT(reachable, r.gadgets.size());  // some gadgets stay unreachable
  EXPECT_DOUBLE_EQ(weighted, r.weighted_total);
  EXPECT_DOUBLE_EQ(r.weighted_total,
                   r.weighted_ret + r.weighted_stk_move + r.weighted_write_mem);
}

// --- Strictly tighter than the generic masks ---------------------------------

TEST(AnalysisPolicy, DerivedPolicyStrictlyTighterThanGeneric) {
  const AnalysisReport r = analyze_base();
  ASSERT_EQ(r.policy.functions.size(), r.n_functions);

  // I/O privilege. The generic store detector allows every address below
  // kPolicyIoSpan to every function; a bounded function may only keep its
  // provable footprint. Strictness: every bounded set is a proper subset
  // of the window, and at least one bounded function is a proper subset
  // even of the *image-wide union* of provable writes.
  IoBitset image_union{};
  std::uint32_t bounded = 0;
  for (const detect::FuncPolicy& f : r.policy.functions) {
    if (f.io_unbounded) continue;
    ++bounded;
    EXPECT_LT(io_bit_count(f.io_allow), detect::kPolicyIoSpan);
    for (std::size_t w = 0; w < f.io_allow.size(); ++w) {
      image_union[w] |= f.io_allow[w];
    }
  }
  EXPECT_EQ(bounded, r.io_bounded);
  bool proper_io_subset = false;
  for (const detect::FuncPolicy& f : r.policy.functions) {
    if (!f.io_unbounded &&
        io_bit_count(f.io_allow) < io_bit_count(image_union)) {
      proper_io_subset = true;
    }
  }
  EXPECT_TRUE(proper_io_subset);

  // Return edges. Generic CFI accepts any call-site successor in the
  // image; a bounded function keeps only the successors of its own
  // callers. Strictness: no function's site set reaches the generic
  // population, and functions nobody calls keep zero legitimate returns.
  const std::uint32_t generic_ret_targets =
      r.call_edges + r.indirect_call_sites;
  bool uncalled_function = false;
  for (const detect::FuncPolicy& f : r.policy.functions) {
    if (f.ret_unbounded) continue;
    EXPECT_LT(f.ret_sites.size(), generic_ret_targets);
    if (f.ret_sites.empty()) uncalled_function = true;
  }
  EXPECT_TRUE(uncalled_function);
}

TEST(AnalysisPolicy, MaterializedPolicyBindsToConcreteLayout) {
  const AnalysisReport r = analyze_base();
  const detect::MaterializedPolicy mat = detect::MaterializedPolicy::materialize(
      r.policy, blob().function_addrs, blob().function_sizes);
  ASSERT_FALSE(mat.empty());
  for (std::size_t i = 0; i < blob().function_addrs.size(); ++i) {
    if (blob().function_sizes[i] == 0) continue;
    const std::uint32_t pc_words = blob().function_addrs[i] / 2;
    EXPECT_EQ(mat.function_containing(pc_words), static_cast<int>(i));
  }
  // Bound vs. unbounded I/O semantics survive materialization.
  for (std::size_t i = 0; i < r.policy.functions.size(); ++i) {
    const detect::FuncPolicy& f = r.policy.functions[i];
    const int idx = static_cast<int>(i);
    if (f.io_unbounded) {
      EXPECT_TRUE(mat.io_allowed(idx, 0x1FF));
    } else {
      EXPECT_EQ(mat.io_allowed(idx, 0x1FF),
                detect::io_bit_test(f.io_allow, 0x1FF));
    }
  }
}

// --- Cache reuse across rerandomization --------------------------------------

TEST(AnalysisPolicy, RerandomizedImageHitsCacheWithIdenticalReport) {
  analysis::AnalysisCache shared;
  analysis::Analyzer warm(&shared);
  const AnalysisReport base = warm.analyze(fw().image.bytes, blob());
  EXPECT_EQ(base.cache_misses, base.n_functions);
  EXPECT_EQ(base.cache_hits, 0u);

  // A fresh permutation: same blob order (stable indices), new addresses.
  support::Rng rng(0x90'1d'5eedu);
  const defense::RandomizeResult result =
      defense::randomize_image(fw().image.bytes, blob(), rng);
  ASSERT_GT(result.moved_functions, 0u);
  toolchain::SymbolBlob permuted = blob();
  permuted.function_addrs = result.new_addrs;

  const AnalysisReport cached = warm.analyze(result.image, permuted);
  EXPECT_EQ(cached.cache_misses, 0u);
  EXPECT_EQ(cached.cache_hits, cached.n_functions);

  // Bit-identity: a cold analysis of the same permuted image renders the
  // same report text (cache counters are excluded from the rendering).
  analysis::AnalysisCache fresh;
  const AnalysisReport cold =
      analysis::Analyzer(&fresh).analyze(result.image, permuted);
  EXPECT_EQ(analysis::report_text(cold), analysis::report_text(cached));

  // Permutation invariance: everything position-independent is unchanged
  // from the base layout — census, taint population, weights, policy.
  EXPECT_EQ(cached.census.total(), base.census.total());
  EXPECT_EQ(cached.tainted_functions, base.tainted_functions);
  // The weight *multiset* is permutation-invariant but the sum runs in
  // gadget-address order, so across layouts it matches only up to
  // floating-point reassociation (within one layout it is bit-exact).
  EXPECT_NEAR(cached.weighted_total, base.weighted_total, 1e-9);
  EXPECT_EQ(cached.io_bounded, base.io_bounded);
  EXPECT_EQ(cached.ret_bounded, base.ret_bounded);
  ASSERT_EQ(cached.policy.functions.size(), base.policy.functions.size());
  for (std::size_t i = 0; i < base.policy.functions.size(); ++i) {
    const detect::FuncPolicy& a = base.policy.functions[i];
    const detect::FuncPolicy& b = cached.policy.functions[i];
    EXPECT_EQ(a.io_allow, b.io_allow);
    EXPECT_EQ(a.io_unbounded, b.io_unbounded);
    EXPECT_EQ(a.ret_sites, b.ret_sites);
    EXPECT_EQ(a.ret_unbounded, b.ret_unbounded);
  }
}

TEST(AnalysisPolicy, FuncRecordSerializationRoundTrips) {
  // The cache stores FuncRecords serialized; a decode of every function in
  // the image must survive the round trip bit for bit (the property the
  // memoized deserialization path depends on).
  const toolchain::FunctionIndex index(blob().function_addrs,
                                       blob().function_sizes);
  for (std::size_t i = 0; i < blob().function_addrs.size(); ++i) {
    const std::uint32_t addr = blob().function_addrs[i];
    const std::uint32_t size = blob().function_sizes[i];
    const analysis::FuncRecord rec = analysis::analyze_function(
        std::span(fw().image.bytes).subspan(addr, size), addr, index);
    const support::Bytes wire = rec.serialize();
    const analysis::FuncRecord back = analysis::FuncRecord::deserialize(wire);
    EXPECT_EQ(back.serialize(), wire);
  }
}

}  // namespace
}  // namespace mavr
