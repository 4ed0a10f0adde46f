// CRC-32/ISO-HDLC oracles for the table-driven implementation: the
// catalogue check value, zlib's crc32() as an external reference over every
// short length at every start alignment, the bitwise definition, and
// incremental updates split at every point.
#include <gtest/gtest.h>

#include <span>
#include <string_view>

#include "support/bytes.hpp"
#include "support/crc.hpp"

#ifdef MAVR_HAVE_ZLIB
#include <zlib.h>
#endif

namespace mavr::support {
namespace {

/// Deterministic, non-periodic test bytes.
Bytes pattern(std::size_t n) {
  Bytes out(n);
  std::uint32_t x = 0x12345678u;
  for (std::uint8_t& b : out) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<std::uint8_t>(x >> 24);
  }
  return out;
}

/// The definition: shift out one bit at a time.
std::uint32_t crc32_bitwise(std::span<const std::uint8_t> data) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::uint8_t b : data) {
    crc ^= b;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) != 0 ? 0xEDB88320u : 0u);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32, CheckValue) {
  constexpr std::string_view kCheck = "123456789";
  const std::span<const std::uint8_t> bytes(
      reinterpret_cast<const std::uint8_t*>(kCheck.data()), kCheck.size());
  EXPECT_EQ(crc32_ieee(bytes), 0xCBF43926u);
  Crc32 bytewise;
  for (std::uint8_t b : bytes) bytewise.update(b);
  EXPECT_EQ(bytewise.value(), 0xCBF43926u);
  EXPECT_EQ(crc32_ieee({}), 0u);
}

TEST(Crc32, MatchesZlibAtEveryLengthAndOffset) {
#ifndef MAVR_HAVE_ZLIB
  GTEST_SKIP() << "zlib not found when configuring; external oracle skipped";
#else
  const Bytes buf = pattern(1024 + 8);
  const uLong seed = ::crc32(0L, Z_NULL, 0);
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len = 0; len <= 1024; ++len) {
      const uLong want =
          ::crc32(seed, buf.data() + off, static_cast<uInt>(len));
      ASSERT_EQ(crc32_ieee(std::span(buf).subspan(off, len)), want)
          << "offset " << off << ", length " << len;
    }
  }
#endif
}

TEST(Crc32, MatchesBitwiseDefinition) {
  const Bytes buf = pattern(200 + 8);
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len = 0; len <= 200; ++len) {
      const std::span<const std::uint8_t> s = std::span(buf).subspan(off, len);
      ASSERT_EQ(crc32_ieee(s), crc32_bitwise(s))
          << "offset " << off << ", length " << len;
    }
  }
}

TEST(Crc32, IncrementalSplitsMatchOneShot) {
  const Bytes buf = pattern(300);
  const std::uint32_t whole = crc32_ieee(buf);
  for (std::size_t cut = 0; cut <= buf.size(); ++cut) {
    Crc32 crc;
    crc.update(std::span(buf).first(cut));
    crc.update(std::span(buf).subspan(cut));
    ASSERT_EQ(crc.value(), whole) << "split at " << cut;
  }
  Crc32 bytewise;
  for (std::uint8_t b : buf) bytewise.update(b);
  EXPECT_EQ(bytewise.value(), whole);
}

}  // namespace
}  // namespace mavr::support
