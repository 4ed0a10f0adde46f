// The linked firmware artifact and its symbol information.
//
// Plays the role of the ELF + Intel HEX pair in the paper (§VI-B2): the
// flat flash image plus the symbol metadata that the MAVR preprocessing
// stage prepends to the HEX file so the master processor can move function
// blocks and patch references at run time.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "support/bytes.hpp"

namespace mavr::toolchain {

/// Linker options reproducing the paper's compiler-flag discussion (§VI-B1):
/// `relax` models GNU ld's call→rcall relaxation (must be *off* for MAVR),
/// `call_prologues` models -mcall-prologues consolidation (must be *off*),
/// `align_functions` models newer-GCC function alignment (the stock
/// toolchain aligns, the MAVR GCC 4.5.4 toolchain packs — see EXPERIMENTS.md
/// for how this calibrates Table III).
struct ToolchainOptions {
  bool relax = false;
  bool call_prologues = false;
  bool align_functions = false;

  /// The configuration the paper's custom MAVR toolchain uses.
  static ToolchainOptions mavr() {
    return {.relax = false, .call_prologues = false, .align_functions = false};
  }
  /// A typical stock AVR build (size-optimized, randomization-hostile).
  static ToolchainOptions stock() {
    return {.relax = true, .call_prologues = true, .align_functions = true};
  }
};

/// One linked symbol. Addresses and sizes are in flash *bytes*.
struct Symbol {
  enum class Kind { Function, Object };
  std::string name;
  std::uint32_t addr = 0;
  std::uint32_t size = 0;
  Kind kind = Kind::Function;
  bool movable = true;  ///< false for the vector table (must stay at 0)
};

/// Flash location (byte offset) holding a code pointer as a *word address*
/// (function-pointer tables, switch jump tables in the data-init region).
///
/// On the 256 KiB ATmega2560 a word address needs 17 bits, so dispatch
/// tables store *far* pointers: a little-endian low word plus a third byte
/// holding bits 16..23 (loaded into EIND before EICALL). `width` is 3 for
/// these; 2-byte slots are legal only while the target stays below 128 KiB.
struct PointerSlot {
  std::uint32_t image_offset = 0;  ///< where in the image the value lives
  std::uint8_t width = 3;          ///< 2 or 3 bytes
};

/// RAM-resident global (for introspection by tests and by the attacker
/// model, which per the threat model owns the unprotected binary + symbols).
struct DataSymbol {
  std::string name;
  std::uint16_t ram_addr = 0;
  std::uint16_t size = 0;
};

/// A fully linked firmware image.
struct Image {
  support::Bytes bytes;  ///< flat flash contents, starting at byte 0

  std::uint32_t text_end = 0;      ///< end of executable code (bytes)
  std::uint32_t data_init_offset = 0;  ///< flash offset of .data initializers
  std::uint32_t data_ram_base = 0;     ///< RAM address .data is copied to
  std::uint32_t data_bytes = 0;        ///< length of .data

  std::vector<Symbol> symbols;  ///< ascending by addr
  std::vector<DataSymbol> data_symbols;
  std::vector<PointerSlot> pointer_slots;
  /// Image offsets of LDI words materializing code addresses — generated
  /// only by -mcall-prologues builds; MAVR refuses to randomize images
  /// containing these (paper §VI-B1).
  std::vector<std::uint32_t> ldi_code_pointers;
  ToolchainOptions options;

  std::uint32_t size_bytes() const {
    return static_cast<std::uint32_t>(bytes.size());
  }

  /// Function symbols only, ascending by address.
  std::vector<Symbol> functions() const;

  /// Number of function symbols — the paper's Table I metric.
  std::size_t function_count() const;

  /// Looks a symbol up by name.
  const Symbol* find(std::string_view name) const;

  /// Looks a RAM global up by name (attacker/tests introspection).
  const DataSymbol* find_data(std::string_view name) const;

  /// Word (little-endian) at image byte offset.
  std::uint16_t word_at(std::uint32_t offset) const;
  void set_word_at(std::uint32_t offset, std::uint16_t value);
};

/// Symbol metadata in the serialized form the preprocessor prepends to the
/// HEX file (paper §VI-B2): function start addresses in ascending order
/// plus the list of flash locations holding function pointers.
struct SymbolBlob {
  std::vector<std::uint32_t> function_addrs;  ///< byte addrs, ascending
  std::vector<std::uint32_t> function_sizes;  ///< bytes, parallel array
  std::vector<PointerSlot> pointer_slots;     ///< image offsets + widths
  std::uint32_t text_end = 0;
  /// End of the region the randomizer may lay code out in: text_end plus
  /// any reserved padding gap (== the .data initializer offset).
  std::uint32_t layout_end = 0;
  std::uint32_t first_movable = 0;  ///< byte addr of first movable function
  bool has_ldi_code_pointers = false;

  /// Serializes to the on-flash wire format (little-endian, CRC-protected).
  support::Bytes serialize() const;

  /// Parses the wire format; throws support::DataError on corruption,
  /// including functions that overlap, descend or end past text_end, and
  /// a first_movable past text_end.
  static SymbolBlob deserialize(std::span<const std::uint8_t> data);

  /// Extracts the blob contents from a linked image.
  static SymbolBlob from_image(const Image& image);
};

}  // namespace mavr::toolchain
