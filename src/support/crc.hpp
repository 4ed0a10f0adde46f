// CRC-16/X.25 (a.k.a. CRC-16/MCRF4XX in its non-inverted accumulate form),
// the checksum MAVLink uses for packet integrity (paper Fig. 2), plus
// CRC-32/ISO-HDLC used by the reflash pipeline to frame the firmware
// container and verify programmed pages (DESIGN.md §9), and the CRC-32
// record frame the campaign service, its checkpoint log and the analysis
// cache share.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

#include "support/bytes.hpp"

namespace mavr::support {

/// Incremental CRC-16/X.25 accumulator (init 0xFFFF, poly 0x8408 reflected).
class Crc16 {
 public:
  /// Folds one byte into the accumulator.
  void update(std::uint8_t byte);

  /// Folds a byte range into the accumulator.
  void update(std::span<const std::uint8_t> data);

  /// Current checksum value.
  std::uint16_t value() const { return crc_; }

 private:
  std::uint16_t crc_ = 0xFFFF;
};

/// One-shot CRC-16/X.25 over a byte range.
std::uint16_t crc16_x25(std::span<const std::uint8_t> data);

/// Incremental CRC-32/ISO-HDLC (the zlib/Ethernet polynomial, reflected:
/// init 0xFFFFFFFF, poly 0xEDB88320, final xor 0xFFFFFFFF). Table-driven:
/// ranges fold eight bytes per step (slicing-by-8), single bytes use the
/// classic byte table, and both give the bitwise definition's values.
class Crc32 {
 public:
  void update(std::uint8_t byte);
  void update(std::span<const std::uint8_t> data);
  std::uint32_t value() const { return crc_ ^ 0xFFFFFFFFu; }

 private:
  std::uint32_t crc_ = 0xFFFFFFFFu;
};

/// One-shot CRC-32/ISO-HDLC over a byte range.
std::uint32_t crc32_ieee(std::span<const std::uint8_t> data);

// One record frame: [u32 len][u32 crc32_ieee(payload)][payload], both
// header fields little-endian. A frame that fails its length or CRC check
// ends the stream for the reader — framing cannot resynchronise past a bad
// header — which is what makes a torn tail harmless.

inline constexpr std::size_t kFrameHeaderBytes = 8;

struct FrameHeader {
  std::uint32_t len = 0;  ///< payload bytes
  std::uint32_t crc = 0;  ///< crc32_ieee of the payload
};

/// Appends one frame holding `payload` to `out`.
void put_frame(Bytes& out, std::span<const std::uint8_t> payload);

FrameHeader read_frame_header(
    std::span<const std::uint8_t, kFrameHeaderBytes> header);

/// The payload of the frame at `data[*pos]`, advancing `*pos` past the
/// frame. Returns nullopt and leaves `*pos` alone when less than a header
/// remains, the length exceeds `max_len` or the bytes left, or the CRC
/// does not match.
std::optional<std::span<const std::uint8_t>> next_frame(
    std::span<const std::uint8_t> data, std::size_t* pos,
    std::uint32_t max_len);

}  // namespace mavr::support
