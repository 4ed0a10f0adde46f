// CRC-16/X.25 (a.k.a. CRC-16/MCRF4XX in its non-inverted accumulate form),
// the checksum MAVLink uses for packet integrity (paper Fig. 2), plus
// CRC-32/ISO-HDLC used by the reflash pipeline to frame the firmware
// container and verify programmed pages (DESIGN.md §9).
#pragma once

#include <cstdint>
#include <span>

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

}  // namespace mavr::support
