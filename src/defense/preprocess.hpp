// MAVR preprocessing stage (paper §V-B1, §VI-B2).
//
// Runs on the host development machine: extracts the function symbols and
// function-pointer references from the linked image and prepends them to
// the firmware HEX file, producing the container that is uploaded verbatim
// to the external flash chip.
//
// Container layout (what the HEX encodes):
//   u32  magic "MVRC"
//   u32  blob length
//   u32  image length
//   u32  CRC-32/ISO-HDLC over blob ‖ image
//   blob (toolchain::SymbolBlob wire format, CRC protected)
//   firmware image bytes
//
// The container-level CRC32 is what lets the master processor reject a
// corrupted external-flash read *before* patching and reprogramming the
// application from it (DESIGN.md §9) — the blob's own CRC16 only covers
// the symbol table, not the image bytes the randomizer rewrites.
#pragma once

#include <string>

#include "support/bytes.hpp"
#include "toolchain/image.hpp"

namespace mavr::defense {

/// The parsed container the master processor works from.
struct Container {
  toolchain::SymbolBlob blob;
  support::Bytes image;
};

/// Builds the container bytes for a linked image.
support::Bytes build_container(const toolchain::Image& image);

/// Host preprocessing: image → Intel HEX of the container.
std::string preprocess_to_hex(const toolchain::Image& image);

/// Parses container bytes (master side). Throws support::DataError on a
/// corrupt container, or one whose text or padded layout ends past the
/// image (the checks SymbolBlob::deserialize makes come on top).
Container parse_container(std::span<const std::uint8_t> bytes);

}  // namespace mavr::defense
