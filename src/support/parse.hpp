// Strict numeric parsing for CLI flags.
//
// The strto* family fails open for command-line use: with a null endptr,
// "1e6" parses as 1, "xyz" as 0, and "-1" wraps to UINT64_MAX — all
// silently. These helpers consume the *entire* token or return nullopt, so
// a tool can report the offending flag instead of running the wrong
// campaign. Shared by the command-line tools.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace mavr::support {

/// Unsigned 64-bit integer. Accepts decimal plus 0x/0 prefixes (strtoull
/// base 0); rejects empty input, whitespace, any sign, trailing junk
/// ("1e6", "10k"), and out-of-range values.
std::optional<std::uint64_t> parse_u64(std::string_view text);

/// parse_u64 additionally constrained to [lo, hi] (inclusive).
std::optional<std::uint64_t> parse_u64_in(std::string_view text,
                                          std::uint64_t lo, std::uint64_t hi);

/// Unsigned hexadecimal integer in [lo, hi] (inclusive): bare hex digits
/// with an optional 0x prefix — the spelling of address flags. Same
/// rejections as parse_u64.
std::optional<std::uint64_t> parse_hex_in(std::string_view text,
                                          std::uint64_t lo, std::uint64_t hi);

/// Unsigned 32-bit integer (parse_u64 range-checked to u32).
std::optional<std::uint32_t> parse_u32(std::string_view text);

/// Finite double. Rejects empty input, leading whitespace, trailing junk,
/// overflow to infinity, and nan/inf spellings.
std::optional<double> parse_f64(std::string_view text);

}  // namespace mavr::support
