// The one linear sweep over AVR flash (DESIGN.md §15).
//
// AVR's two-byte alignment makes a linear sweep from a region's base visit
// every instruction: unlike x86 there are no overlapping instruction
// streams at odd offsets. Every tool that cuts flash into instructions —
// the gadget finder, the CFI rebuild, the patcher, the CFG builder, the
// disassembler — walks through here, so they all cut at the same
// boundaries and a gadget set means the same thing in each of them.
//
// The one rule: a 32-bit instruction (JMP/CALL/LDS/STS) whose second word
// lies past the region end is *truncated*. It is never decoded, since
// there is no second word to decode it with; it ends the walk, and each
// caller decides what a truncated tail means for it.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <type_traits>

#include "avr/decode.hpp"
#include "avr/instr.hpp"
#include "support/bytes.hpp"

namespace mavr::avr {

/// Width in words of the instruction whose first word is `first_word` when
/// `remaining` words of the region are left, the first word included: 1 or
/// 2, or 0 when the instruction is truncated. The rule for_each_instr
/// applies, for walks that only need instruction boundaries.
inline std::uint32_t instr_words(std::uint16_t first_word,
                                 std::size_t remaining) {
  const std::uint32_t words = is_two_word(first_word) ? 2 : 1;
  return words <= remaining ? words : 0;
}

/// Decodes `code`, whose first byte lives at flash byte address `base`, one
/// instruction at a time and calls `fn(byte_addr, instr)` for each. When
/// `fn` returns bool, false stops the walk. Returns the byte address of a
/// truncated instruction at the region end, or nullopt when there is none
/// (an odd trailing byte is not an instruction) or `fn` stopped the walk.
template <class Fn>
std::optional<std::uint32_t> for_each_instr(std::span<const std::uint8_t> code,
                                            std::uint32_t base, Fn&& fn) {
  const std::size_t size = code.size();
  std::size_t pos = 0;
  while (pos + 2 <= size) {
    const std::uint16_t w1 = support::load_u16_le(code, pos);
    const std::uint16_t w2 =
        pos + 4 <= size ? support::load_u16_le(code, pos + 2) : 0;
    const Instr in = decode(w1, w2);
    const std::uint32_t addr = base + static_cast<std::uint32_t>(pos);
    if (pos + 2u * in.size_words > size) return addr;
    if constexpr (std::is_same_v<
                      std::invoke_result_t<Fn&, std::uint32_t, const Instr&>,
                      bool>) {
      if (!fn(addr, in)) return std::nullopt;
    } else {
      fn(addr, in);
    }
    pos += 2u * in.size_words;
  }
  return std::nullopt;
}

}  // namespace mavr::avr
