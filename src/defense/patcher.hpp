// MAVR's function-block randomizer and reference patcher (paper §V-B,
// §VI-B3) — the core of the defense.
//
// Given the flat firmware image, the preprocessed symbol blob and a
// permutation, this module:
//  1. relocates every *movable* function block (the vector table stays at
//     address 0, the reset path is patched instead);
//  2. rewrites the absolute target of every CALL/JMP instruction, using
//     binary search over the old symbol addresses for targets that fall
//     *inside* a function (cross-jumped epilogue tails, the paper's
//     "trampolines for switch case statements");
//  3. rewrites every recorded function-pointer slot in the data-init
//     region (dispatch tables / vtable analogues);
//  4. refuses images whose build options violate MAVR's requirements:
//     relaxed short calls crossing function boundaries, or LDI-encoded
//     code pointers from -mcall-prologues (paper §VI-B1).
//
// The transformation preserves semantics exactly: tests replay the
// randomized firmware and require a bit-identical I/O trace.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "support/bytes.hpp"
#include "support/rng.hpp"
#include "toolchain/image.hpp"

namespace mavr::defense {

/// Outcome of one randomization pass.
struct RandomizeResult {
  support::Bytes image;  ///< same size as the input image

  /// New byte address of each blob function (parallel to blob order).
  std::vector<std::uint32_t> new_addrs;

  // Patch statistics (reported by benches and sanity-checked by tests).
  std::uint32_t moved_functions = 0;
  std::uint32_t patched_abs_jumps = 0;    ///< CALL/JMP retargeted
  std::uint32_t mid_function_targets = 0; ///< needed the binary search
  std::uint32_t patched_pointers = 0;     ///< data-section slots rewritten
};

/// Draws a permutation of the movable function blocks.
std::vector<std::size_t> draw_permutation(const toolchain::SymbolBlob& blob,
                                          support::Rng& rng);

/// Draws random inter-block padding gaps (even byte counts) filling the
/// image's reserved padding slack — the §VIII-B entropy extension the
/// paper discusses. Returns permutation-count+1 gap sizes summing to the
/// slack (all zero when the image reserves none).
std::vector<std::uint32_t> draw_gaps(const toolchain::SymbolBlob& blob,
                                     support::Rng& rng);

/// Applies `permutation` (over the movable blocks, in ascending-address
/// order) to the image, optionally inserting `gaps` (gaps[i] erased-flash
/// bytes before the i-th relocated block, gaps[n] after the last; must sum
/// to the image's reserved padding slack). Throws
/// support::PreconditionError when the image cannot be randomized safely
/// (see file comment), and support::DataError when a block ends inside a
/// 32-bit instruction (patching it would write into the next block).
RandomizeResult randomize_image(std::span<const std::uint8_t> image,
                                const toolchain::SymbolBlob& blob,
                                const std::vector<std::size_t>& permutation,
                                const std::vector<std::uint32_t>& gaps = {});

/// Convenience: draw + apply (with padding when the image reserves slack).
RandomizeResult randomize_image(std::span<const std::uint8_t> image,
                                const toolchain::SymbolBlob& blob,
                                support::Rng& rng);

/// Number of movable function blocks (the `n` of the paper's n! argument).
std::size_t movable_count(const toolchain::SymbolBlob& blob);

/// Bytes of padding slack the image reserves for gap randomization.
std::uint32_t padding_slack(const toolchain::SymbolBlob& blob);

/// Extra entropy (bits) the gap randomization adds: log2 of the number of
/// weak compositions of slack/2 two-byte units into n+1 gaps.
double padding_entropy_bits(std::size_t n_blocks, std::uint32_t slack_bytes);

}  // namespace mavr::defense
