#include "support/crc.hpp"

#include <array>

namespace mavr::support {

namespace {

constexpr std::uint32_t kCrc32Poly = 0xEDB88320u;  // reflected 0x04C11DB7

/// Slicing-by-8 tables: kCrc32Table[0] is the classic byte-at-a-time
/// table; kCrc32Table[k][b] is the CRC of byte b followed by k zero bytes,
/// so eight input bytes fold into the accumulator with eight independent
/// lookups instead of 64 dependent shift/xor steps.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_crc32_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    std::uint32_t c = b;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c >> 1) ^ (kCrc32Poly & (~(c & 1u) + 1u));
    }
    t[0][b] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t b = 0; b < 256; ++b) {
      t[k][b] = (t[k - 1][b] >> 8) ^ t[0][t[k - 1][b] & 0xFF];
    }
  }
  return t;
}

constexpr auto kCrc32Table = make_crc32_tables();

static_assert(kCrc32Table[0][1] == 0x77073096u, "CRC-32 table 0 mismatch");

}  // namespace

void Crc16::update(std::uint8_t byte) {
  std::uint8_t tmp = byte ^ static_cast<std::uint8_t>(crc_ & 0xFF);
  tmp ^= static_cast<std::uint8_t>(tmp << 4);
  crc_ = static_cast<std::uint16_t>((crc_ >> 8) ^ (tmp << 8) ^ (tmp << 3) ^
                                    (tmp >> 4));
}

void Crc16::update(std::span<const std::uint8_t> data) {
  for (std::uint8_t b : data) update(b);
}

std::uint16_t crc16_x25(std::span<const std::uint8_t> data) {
  Crc16 crc;
  crc.update(data);
  return crc.value();
}

void Crc32::update(std::uint8_t byte) {
  crc_ = (crc_ >> 8) ^ kCrc32Table[0][(crc_ ^ byte) & 0xFF];
}

void Crc32::update(std::span<const std::uint8_t> data) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint32_t c = crc_;
  while (n >= 8) {
    // Byte-wise little-endian assembly: the compiler merges it into one
    // load on little-endian hosts and it stays correct on big-endian ones.
    const std::uint32_t lo =
        c ^ (std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
             std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24);
    c = kCrc32Table[7][lo & 0xFF] ^ kCrc32Table[6][(lo >> 8) & 0xFF] ^
        kCrc32Table[5][(lo >> 16) & 0xFF] ^ kCrc32Table[4][lo >> 24] ^
        kCrc32Table[3][p[4]] ^ kCrc32Table[2][p[5]] ^ kCrc32Table[1][p[6]] ^
        kCrc32Table[0][p[7]];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) c = (c >> 8) ^ kCrc32Table[0][(c ^ *p++) & 0xFF];
  crc_ = c;
}

std::uint32_t crc32_ieee(std::span<const std::uint8_t> data) {
  Crc32 crc;
  crc.update(data);
  return crc.value();
}

void put_frame(Bytes& out, std::span<const std::uint8_t> payload) {
  ByteWriter w(out);
  w.u32_le(static_cast<std::uint32_t>(payload.size()));
  w.u32_le(crc32_ieee(payload));
  w.bytes(payload);
}

FrameHeader read_frame_header(
    std::span<const std::uint8_t, kFrameHeaderBytes> header) {
  ByteReader r(header);
  FrameHeader h;
  h.len = r.u32_le();
  h.crc = r.u32_le();
  return h;
}

std::optional<std::span<const std::uint8_t>> next_frame(
    std::span<const std::uint8_t> data, std::size_t* pos,
    std::uint32_t max_len) {
  if (data.size() - *pos < kFrameHeaderBytes) return std::nullopt;
  const FrameHeader h =
      read_frame_header(data.subspan(*pos).first<kFrameHeaderBytes>());
  if (h.len > max_len || data.size() - *pos - kFrameHeaderBytes < h.len) {
    return std::nullopt;
  }
  const auto payload = data.subspan(*pos + kFrameHeaderBytes, h.len);
  if (crc32_ieee(payload) != h.crc) return std::nullopt;
  *pos += kFrameHeaderBytes + h.len;
  return payload;
}

}  // namespace mavr::support
