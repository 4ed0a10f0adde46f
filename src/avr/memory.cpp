#include "avr/memory.hpp"

#include "avr/io.hpp"

namespace mavr::avr {

void ProgramMemory::erase() {
  std::fill_n(words_.data(), words_.size(), std::uint16_t{0xFFFF});
  ++generation_;
}

void ProgramMemory::program(std::span<const std::uint8_t> image) {
  MAVR_REQUIRE(image.size() <= size_bytes(), "image exceeds flash size");
  for (std::size_t i = 0; i < image.size(); ++i) {
    const std::size_t word_index = i / 2;
    std::uint16_t w = words_[word_index];
    if ((i & 1) == 0) {
      w = static_cast<std::uint16_t>((w & 0xFF00) | image[i]);
    } else {
      w = static_cast<std::uint16_t>((w & 0x00FF) | (image[i] << 8));
    }
    words_[word_index] = w;
  }
  ++generation_;
}

void ProgramMemory::program_page(std::uint32_t byte_addr,
                                 std::span<const std::uint8_t> page) {
  MAVR_REQUIRE(byte_addr % 2 == 0, "page address must be even");
  MAVR_REQUIRE(byte_addr + page.size() <= size_bytes(),
               "page exceeds flash size");
  for (std::size_t i = 0; i < page.size(); ++i) {
    const std::size_t abs = byte_addr + i;
    const std::size_t word_index = abs / 2;
    std::uint16_t w = words_[word_index];
    if ((abs & 1) == 0) {
      w = static_cast<std::uint16_t>((w & 0xFF00) | page[i]);
    } else {
      w = static_cast<std::uint16_t>((w & 0x00FF) | (page[i] << 8));
    }
    words_[word_index] = w;
  }
  ++generation_;
}

support::Bytes ProgramMemory::read_bytes(std::uint32_t byte_addr,
                                         std::uint32_t len) const {
  MAVR_REQUIRE(len <= size_bytes() && byte_addr <= size_bytes() - len,
               "flash read beyond end of flash");
  support::Bytes out(len);
  std::uint32_t a = byte_addr, i = 0;
  if ((a & 1) != 0 && len > 0) {
    out[i++] = static_cast<std::uint8_t>(words_[a++ / 2] >> 8);
  }
  for (; i + 1 < len; i += 2, a += 2) {
    const std::uint16_t w = words_[a / 2];
    out[i] = static_cast<std::uint8_t>(w & 0xFF);
    out[i + 1] = static_cast<std::uint8_t>(w >> 8);
  }
  if (i < len) out[i] = static_cast<std::uint8_t>(words_[a / 2] & 0xFF);
  return out;
}

support::Bytes DataMemory::snapshot(std::uint32_t addr,
                                    std::uint32_t count) const {
  support::Bytes out;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) out.push_back(raw(addr + i));
  return out;
}

void DataMemory::clear() { std::fill(bytes_.begin(), bytes_.end(), 0); }

}  // namespace mavr::avr
