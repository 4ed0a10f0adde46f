// AVR disassembler — renders instruction listings like the paper's gadget
// figures (Figs. 4 and 5: address, mnemonic, operands).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "avr/instr.hpp"

namespace mavr::toolchain {

/// One disassembled line.
struct DisasmLine {
  std::uint32_t byte_addr = 0;
  avr::Instr instr;
  std::string text;  ///< e.g. "out 0x3e, r29"
};

/// Renders one instruction to text. `byte_addr` is used to print absolute
/// targets of relative jumps.
std::string format_instr(const avr::Instr& instr, std::uint32_t byte_addr);

/// Disassembles `code` (flat little-endian bytes starting at `base`). A
/// 32-bit instruction cut off by the end of `code` becomes a last line
/// ".word 0x940e ; truncated" holding its first word (op Invalid).
std::vector<DisasmLine> disassemble(std::span<const std::uint8_t> code,
                                    std::uint32_t base = 0);

/// Formats a listing in the paper's figure style:
///   5d64    out 0x3e, r29
std::string format_listing(const std::vector<DisasmLine>& lines);

}  // namespace mavr::toolchain
