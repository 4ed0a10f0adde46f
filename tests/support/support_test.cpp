// Unit tests for the support layer: byte codecs, CRC, RNG, hexdump,
// errors, SHA-256/HMAC.
#include <gtest/gtest.h>

#include <set>
#include <string_view>

#include "support/bytes.hpp"
#include "support/crc.hpp"
#include "support/error.hpp"
#include "support/hexdump.hpp"
#include "support/parse.hpp"
#include "support/rng.hpp"
#include "support/sha256.hpp"

namespace mavr::support {
namespace {

TEST(Bytes, WriterRoundTripsThroughReader) {
  Bytes buf;
  ByteWriter w(buf);
  w.u8(0xAB);
  w.u16_le(0x1234);
  w.u16_be(0x5678);
  w.u32_le(0xDEADBEEF);
  w.u24_be(0x01CAFE);
  w.fill(0x11, 3);

  ByteReader r(buf);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16_le(), 0x1234);
  EXPECT_EQ(r.u16_be(), 0x5678);
  EXPECT_EQ(r.u32_le(), 0xDEADBEEFu);
  EXPECT_EQ(r.u24_be(), 0x01CAFEu);
  EXPECT_EQ(r.bytes(3), Bytes({0x11, 0x11, 0x11}));
  EXPECT_TRUE(r.done());
}

TEST(Bytes, U24BigEndianLayoutMatchesAvrStack) {
  // The layout CALL leaves on the stack: MSB at the lowest address.
  Bytes buf;
  ByteWriter w(buf);
  w.u24_be(0x015D64 / 2);
  EXPECT_EQ(buf, Bytes({0x00, 0xAE, 0xB2}));
}

TEST(Bytes, ReaderUnderflowThrows) {
  Bytes buf = {1, 2};
  ByteReader r(buf);
  r.u8();
  EXPECT_THROW(r.u16_le(), PreconditionError);
}

TEST(Bytes, U24RangeChecked) {
  Bytes buf;
  ByteWriter w(buf);
  EXPECT_THROW(w.u24_be(0x1000000), PreconditionError);
}

TEST(Bytes, RandomAccessLoadStore) {
  Bytes buf(8, 0);
  store_u16_le(buf, 2, 0xBEEF);
  EXPECT_EQ(buf[2], 0xEF);
  EXPECT_EQ(buf[3], 0xBE);
  EXPECT_EQ(load_u16_le(buf, 2), 0xBEEF);
  EXPECT_THROW(load_u16_le(buf, 7), PreconditionError);
}

TEST(Crc16, KnownVector) {
  // CRC-16/MCRF4XX of "123456789" is 0x6F91 (the X.25 accumulate without
  // the final inversion -- the form MAVLink uses).
  const char* s = "123456789";
  const std::uint16_t crc = crc16_x25(
      std::span(reinterpret_cast<const std::uint8_t*>(s), 9));
  EXPECT_EQ(crc, 0x6F91);
}

TEST(Crc16, IncrementalMatchesOneShot) {
  Bytes data;
  for (int i = 0; i < 100; ++i) data.push_back(static_cast<std::uint8_t>(i));
  Crc16 inc;
  for (std::uint8_t b : data) inc.update(b);
  EXPECT_EQ(inc.value(), crc16_x25(data));
}

TEST(Crc16, DetectsSingleBitFlips) {
  Bytes data = {0xFE, 0x09, 0x01, 0x00, 0x01, 0x00};
  const std::uint16_t good = crc16_x25(data);
  for (std::size_t i = 0; i < data.size() * 8; ++i) {
    Bytes bad = data;
    bad[i / 8] ^= static_cast<std::uint8_t>(1u << (i % 8));
    EXPECT_NE(crc16_x25(bad), good) << "bit " << i;
  }
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
  EXPECT_EQ(rng.below(1), 0u);
  EXPECT_EQ(rng.below(0), 0u);
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng rng(99);
  constexpr int kBuckets = 8, kDraws = 80'000;
  int histogram[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) ++histogram[rng.below(kBuckets)];
  for (int count : histogram) {
    EXPECT_NEAR(count, kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(Rng, PermutationIsAPermutation) {
  Rng rng(5);
  const auto perm = rng.permutation(257);
  std::set<std::size_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 257u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 256u);
}

TEST(Rng, ShuffleCoversAllOrders) {
  // Every ordering of 3 items should appear over many shuffles.
  Rng rng(11);
  std::set<std::string> orders;
  for (int i = 0; i < 300; ++i) {
    std::vector<char> v = {'a', 'b', 'c'};
    rng.shuffle(v);
    orders.insert(std::string(v.begin(), v.end()));
  }
  EXPECT_EQ(orders.size(), 6u);
}

TEST(Rng, ForkIsDeterministicAndOrderFree) {
  const Rng root(42);
  Rng a = root.fork(17);
  Rng b = root.fork(17);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
  // Forking is a pure function of (seed, index): draws on the root (or a
  // different fork order) must not change a child's stream.
  Rng drained(42);
  for (int i = 0; i < 1000; ++i) drained.next();
  Rng c = drained.fork(17);
  Rng d = root.fork(17);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(c.next(), d.next());
}

TEST(Rng, ForkedStreamsDoNotOverlap) {
  // 64 child streams, first 10k draws each: no value may repeat. With
  // 640k uniform 64-bit draws a birthday collision has probability
  // ~2^-25, so any overlap means correlated streams, not bad luck.
  const Rng root(0xF0F0);
  std::set<std::uint64_t> seen;
  for (std::uint64_t stream = 0; stream < 64; ++stream) {
    Rng child = root.fork(stream);
    for (int i = 0; i < 10'000; ++i) {
      EXPECT_TRUE(seen.insert(child.next()).second)
          << "overlap in stream " << stream << " draw " << i;
    }
  }
}

TEST(Rng, DeriveSeedSeparatesAdjacentRootsAndIndices) {
  EXPECT_NE(Rng::derive_seed(1, 0), Rng::derive_seed(1, 1));
  EXPECT_NE(Rng::derive_seed(1, 0), Rng::derive_seed(2, 0));
  EXPECT_NE(Rng::derive_seed(1, 1), Rng::derive_seed(2, 0));
  EXPECT_EQ(Rng::derive_seed(7, 9), Rng::derive_seed(7, 9));
}

TEST(Rng, UnitInHalfOpenInterval) {
  Rng rng(3);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Hexdump, MatchesFig6Format) {
  const Bytes data = {0xD1, 0x21, 0x00, 0x4E, 0x12, 0xA5, 0x00, 0x1A, 0x00};
  const std::string dump = hexdump(data, 0x8021B9);
  EXPECT_NE(dump.find("0x8021B9: 0xD1 0x21 0x00 0x4E 0x12 0xA5 0x00 0x1A"),
            std::string::npos);
  EXPECT_NE(dump.find("0x8021C1: 0x00"), std::string::npos);
}

TEST(Hexdump, ByteAndValueFormatting) {
  EXPECT_EQ(hex_byte(0x0F), "0x0F");
  EXPECT_EQ(hex_value(0x5D64), "0x5D64");
}

TEST(Error, CheckMacrosThrowTypedExceptions) {
  EXPECT_THROW(MAVR_REQUIRE(false, "nope"), PreconditionError);
  EXPECT_THROW(MAVR_CHECK(false, "bug"), InvariantError);
  EXPECT_NO_THROW(MAVR_REQUIRE(true, ""));
  try {
    MAVR_REQUIRE(1 == 2, "context message");
    FAIL();
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("context message"),
              std::string::npos);
  }
}

TEST(Parse, U64AcceptsOnlyWholeCleanTokens) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("1000000"), 1'000'000u);
  EXPECT_EQ(parse_u64("0x10"), 16u);            // base-0 keeps hex seeds
  EXPECT_EQ(parse_u64("18446744073709551615"),  // u64 max
            18446744073709551615ull);
  // The strtoull failure modes this replaces: "1e6" parsed as 1, "xyz"
  // as 0, "-1" wrapped to u64 max — all silently.
  EXPECT_FALSE(parse_u64("1e6").has_value());
  EXPECT_FALSE(parse_u64("xyz").has_value());
  EXPECT_FALSE(parse_u64("-1").has_value());
  EXPECT_FALSE(parse_u64("+1").has_value());
  EXPECT_FALSE(parse_u64("").has_value());
  EXPECT_FALSE(parse_u64(" 1").has_value());
  EXPECT_FALSE(parse_u64("1 ").has_value());
  EXPECT_FALSE(parse_u64("10k").has_value());
  EXPECT_FALSE(parse_u64("18446744073709551616").has_value());  // overflow
}

TEST(Parse, U64InEnforcesInclusiveRange) {
  EXPECT_EQ(parse_u64_in("1", 1, 256), 1u);
  EXPECT_EQ(parse_u64_in("256", 1, 256), 256u);
  EXPECT_FALSE(parse_u64_in("0", 1, 256).has_value());
  EXPECT_FALSE(parse_u64_in("257", 1, 256).has_value());
  EXPECT_FALSE(parse_u64_in("1000", 1, 256).has_value());
}

TEST(Parse, HexInReadsBareOrPrefixedHexInRange) {
  EXPECT_EQ(parse_hex_in("10046", 0, 0xFFFFF), 0x10046u);
  EXPECT_EQ(parse_hex_in("0x1a", 0, 0xFFFF), 0x1Au);
  EXPECT_EQ(parse_hex_in("FFFF", 0, 0xFFFF), 0xFFFFu);
  // Out of range instead of truncated to the low 16 bits.
  EXPECT_FALSE(parse_hex_in("10046", 0, 0xFFFF).has_value());
  EXPECT_FALSE(parse_hex_in("xyz", 0, 0xFFFF).has_value());
  EXPECT_FALSE(parse_hex_in("zz", 0, 0xFFFF).has_value());
  EXPECT_FALSE(parse_hex_in("0x", 0, 0xFFFF).has_value());
  EXPECT_FALSE(parse_hex_in("", 0, 0xFFFF).has_value());
  EXPECT_FALSE(parse_hex_in("-1", 0, 0xFFFF).has_value());
}

TEST(Parse, U32RejectsValuesPastTheType) {
  EXPECT_EQ(parse_u32("4294967295"), 4294967295u);
  EXPECT_FALSE(parse_u32("4294967296").has_value());
}

TEST(Parse, F64AcceptsFiniteDecimalsOnly) {
  EXPECT_EQ(parse_f64("0.25"), 0.25);
  EXPECT_EQ(parse_f64("1e-3"), 1e-3);
  EXPECT_EQ(parse_f64("0"), 0.0);
  EXPECT_FALSE(parse_f64("").has_value());
  EXPECT_FALSE(parse_f64("0.5x").has_value());
  EXPECT_FALSE(parse_f64("nan").has_value());
  EXPECT_FALSE(parse_f64("inf").has_value());
  EXPECT_FALSE(parse_f64("1e999").has_value());  // overflows to infinity
  EXPECT_FALSE(parse_f64(" 0.5").has_value());
}

std::span<const std::uint8_t> as_bytes(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

std::string hex(const Sha256Digest& d) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (std::uint8_t b : d) {
    out.push_back(digits[b >> 4]);
    out.push_back(digits[b & 0xF]);
  }
  return out;
}

TEST(Sha256, Fips180KnownAnswers) {
  // FIPS 180-4 example vectors.
  EXPECT_EQ(
      hex(sha256(as_bytes(""))),
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(
      hex(sha256(as_bytes("abc"))),
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      hex(sha256(as_bytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnom"
                          "nopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, IncrementalMatchesOneShotAcrossBlockBoundaries) {
  // 200 bytes crosses the 64-byte block boundary at every split point.
  Bytes data(200);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  const Sha256Digest whole = sha256(data);
  for (std::size_t split : {0u, 1u, 63u, 64u, 65u, 128u, 199u, 200u}) {
    Sha256 h;
    h.update(std::span(data).first(split));
    h.update(std::span(data).subspan(split));
    EXPECT_EQ(h.finish(), whole) << "split at " << split;
  }
}

TEST(Sha256, Rfc4231HmacKnownAnswers) {
  // RFC 4231 test case 2: short key, short message.
  EXPECT_EQ(
      hex(hmac_sha256(as_bytes("Jefe"),
                      as_bytes("what do ya want for nothing?"))),
      "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
  // RFC 4231 test case 3: 20 × 0xaa key, 50 × 0xdd message.
  const Bytes key3(20, 0xAA);
  const Bytes msg3(50, 0xDD);
  EXPECT_EQ(
      hex(hmac_sha256(key3, msg3)),
      "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
  // RFC 4231 test case 6: 131-byte key — exercises the hash-long-keys
  // path (> one SHA-256 block).
  const Bytes key6(131, 0xAA);
  EXPECT_EQ(
      hex(hmac_sha256(
          key6, as_bytes("Test Using Larger Than Block-Size Key - Hash "
                         "Key First"))),
      "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Sha256, DigestEqualDiscriminates) {
  const Sha256Digest a = sha256(as_bytes("abc"));
  Sha256Digest b = a;
  EXPECT_TRUE(digest_equal(a, b));
  b[31] ^= 1;
  EXPECT_FALSE(digest_equal(a, b));
  b = a;
  b[0] ^= 0x80;
  EXPECT_FALSE(digest_equal(a, b));
}

}  // namespace
}  // namespace mavr::support
