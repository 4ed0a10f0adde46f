#include "support/parse.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>

namespace mavr::support {

namespace {

// strtoull/strtod skip leading whitespace and accept signs; a flag value
// with either is a user error, not a number.
bool rejected_prefix(std::string_view text) {
  return text.empty() ||
         std::isspace(static_cast<unsigned char>(text.front())) != 0 ||
         text.front() == '+' || text.front() == '-';
}

/// strtoull in `base` over the whole token; nullopt on anything else.
std::optional<std::uint64_t> parse_whole(std::string_view text, int base) {
  if (rejected_prefix(text)) return std::nullopt;
  const std::string buf(text);  // strtoull needs a NUL terminator
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(buf.c_str(), &end, base);
  if (errno == ERANGE || end != buf.c_str() + buf.size()) return std::nullopt;
  return static_cast<std::uint64_t>(value);
}

}  // namespace

std::optional<std::uint64_t> parse_u64(std::string_view text) {
  return parse_whole(text, 0);
}

std::optional<std::uint64_t> parse_hex_in(std::string_view text,
                                          std::uint64_t lo, std::uint64_t hi) {
  const auto value = parse_whole(text, 16);
  if (!value || *value < lo || *value > hi) return std::nullopt;
  return value;
}

std::optional<std::uint64_t> parse_u64_in(std::string_view text,
                                          std::uint64_t lo, std::uint64_t hi) {
  const auto value = parse_u64(text);
  if (!value || *value < lo || *value > hi) return std::nullopt;
  return value;
}

std::optional<std::uint32_t> parse_u32(std::string_view text) {
  const auto value =
      parse_u64_in(text, 0, std::numeric_limits<std::uint32_t>::max());
  if (!value) return std::nullopt;
  return static_cast<std::uint32_t>(*value);
}

std::optional<double> parse_f64(std::string_view text) {
  if (rejected_prefix(text)) return std::nullopt;
  const std::string buf(text);
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(buf.c_str(), &end);
  if (errno == ERANGE || end != buf.c_str() + buf.size()) return std::nullopt;
  if (!std::isfinite(value)) return std::nullopt;  // rejects "nan"/"inf" too
  return value;
}

}  // namespace mavr::support
