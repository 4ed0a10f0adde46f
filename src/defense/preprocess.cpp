#include "defense/preprocess.hpp"

#include <algorithm>

#include "support/crc.hpp"
#include "support/error.hpp"
#include "toolchain/intelhex.hpp"

namespace mavr::defense {

namespace {
constexpr std::uint32_t kContainerMagic = 0x4D565243;  // "MVRC"
}

support::Bytes build_container(const toolchain::Image& image) {
  const toolchain::SymbolBlob blob = toolchain::SymbolBlob::from_image(image);
  const support::Bytes blob_bytes = blob.serialize();
  support::Crc32 crc;
  crc.update(blob_bytes);
  crc.update(image.bytes);
  support::Bytes out;
  support::ByteWriter w(out);
  w.u32_le(kContainerMagic);
  w.u32_le(static_cast<std::uint32_t>(blob_bytes.size()));
  w.u32_le(static_cast<std::uint32_t>(image.bytes.size()));
  w.u32_le(crc.value());
  w.bytes(blob_bytes);
  w.bytes(image.bytes);
  return out;
}

std::string preprocess_to_hex(const toolchain::Image& image) {
  return toolchain::intel_hex_encode(build_container(image));
}

Container parse_container(std::span<const std::uint8_t> bytes) {
  support::ByteReader r(bytes);
  if (r.remaining() < 16 || r.u32_le() != kContainerMagic) {
    throw support::DataError("bad MAVR container magic");
  }
  const std::uint32_t blob_len = r.u32_le();
  const std::uint32_t image_len = r.u32_le();
  const std::uint32_t stored_crc = r.u32_le();
  if (r.remaining() < static_cast<std::size_t>(blob_len) + image_len) {
    throw support::DataError("MAVR container truncated");
  }
  Container c;
  const support::Bytes blob_bytes = r.bytes(blob_len);
  c.image = r.bytes(image_len);
  support::Crc32 crc;
  crc.update(blob_bytes);
  crc.update(c.image);
  if (crc.value() != stored_crc) {
    throw support::DataError("MAVR container CRC mismatch");
  }
  c.blob = toolchain::SymbolBlob::deserialize(blob_bytes);
  if (std::max(c.blob.text_end, c.blob.layout_end) > c.image.size()) {
    throw support::DataError("MAVR container image shorter than its layout");
  }
  return c;
}

}  // namespace mavr::defense
