#include "toolchain/image.hpp"

#include <algorithm>

#include "support/bytes.hpp"
#include "support/crc.hpp"
#include "support/error.hpp"

namespace mavr::toolchain {

std::vector<Symbol> Image::functions() const {
  std::vector<Symbol> out;
  for (const Symbol& s : symbols) {
    if (s.kind == Symbol::Kind::Function) out.push_back(s);
  }
  std::sort(out.begin(), out.end(),
            [](const Symbol& a, const Symbol& b) { return a.addr < b.addr; });
  return out;
}

std::size_t Image::function_count() const {
  std::size_t n = 0;
  for (const Symbol& s : symbols) {
    if (s.kind == Symbol::Kind::Function) ++n;
  }
  return n;
}

const Symbol* Image::find(std::string_view name) const {
  for (const Symbol& s : symbols) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

const DataSymbol* Image::find_data(std::string_view name) const {
  for (const DataSymbol& s : data_symbols) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::uint16_t Image::word_at(std::uint32_t offset) const {
  return support::load_u16_le(bytes, offset);
}

void Image::set_word_at(std::uint32_t offset, std::uint16_t value) {
  support::store_u16_le(bytes, offset, value);
}

namespace {
constexpr std::uint32_t kBlobMagic = 0x4D565253;  // "MVRS"
}

support::Bytes SymbolBlob::serialize() const {
  MAVR_REQUIRE(function_addrs.size() == function_sizes.size(),
               "address/size arrays must be parallel");
  support::Bytes out;
  support::ByteWriter w(out);
  w.u32_le(kBlobMagic);
  w.u32_le(static_cast<std::uint32_t>(function_addrs.size()));
  w.u32_le(static_cast<std::uint32_t>(pointer_slots.size()));
  w.u32_le(text_end);
  w.u32_le(layout_end);
  w.u32_le(first_movable);
  w.u8(has_ldi_code_pointers ? 1 : 0);
  for (std::size_t i = 0; i < function_addrs.size(); ++i) {
    w.u32_le(function_addrs[i]);
    w.u32_le(function_sizes[i]);
  }
  for (const PointerSlot& slot : pointer_slots) {
    w.u32_le(slot.image_offset);
    w.u8(slot.width);
  }
  w.u16_le(support::crc16_x25(out));
  return out;
}

SymbolBlob SymbolBlob::deserialize(std::span<const std::uint8_t> data) {
  if (data.size() < 27) throw support::DataError("symbol blob truncated");
  const std::uint16_t stored_crc =
      support::load_u16_le(data, data.size() - 2);
  const std::uint16_t computed =
      support::crc16_x25(data.first(data.size() - 2));
  if (stored_crc != computed) {
    throw support::DataError("symbol blob CRC mismatch");
  }
  support::ByteReader r(data.first(data.size() - 2));
  if (r.u32_le() != kBlobMagic) {
    throw support::DataError("symbol blob bad magic");
  }
  SymbolBlob blob;
  const std::uint32_t n_fns = r.u32_le();
  const std::uint32_t n_slots = r.u32_le();
  blob.text_end = r.u32_le();
  blob.layout_end = r.u32_le();
  blob.first_movable = r.u32_le();
  blob.has_ldi_code_pointers = r.u8() != 0;
  if (r.remaining() != std::size_t{n_fns} * 8 + std::size_t{n_slots} * 5) {
    throw support::DataError("symbol blob length mismatch");
  }
  if (blob.first_movable > blob.text_end) {
    throw support::DataError("symbol blob first movable past text end");
  }
  blob.function_addrs.reserve(n_fns);
  blob.function_sizes.reserve(n_fns);
  // The randomizer copies and patches each function in place, so every
  // range must lie inside the text, after the one before it.
  std::uint64_t prev_end = 0;
  for (std::uint32_t i = 0; i < n_fns; ++i) {
    const std::uint32_t addr = r.u32_le();
    const std::uint32_t size = r.u32_le();
    if (addr < prev_end) {
      throw support::DataError("symbol blob functions overlap or descend");
    }
    prev_end = std::uint64_t{addr} + size;
    if (prev_end > blob.text_end) {
      throw support::DataError("symbol blob function ends past text end");
    }
    blob.function_addrs.push_back(addr);
    blob.function_sizes.push_back(size);
  }
  blob.pointer_slots.reserve(n_slots);
  for (std::uint32_t i = 0; i < n_slots; ++i) {
    PointerSlot slot;
    slot.image_offset = r.u32_le();
    slot.width = r.u8();
    if (slot.width != 2 && slot.width != 3) {
      throw support::DataError("symbol blob bad pointer width");
    }
    blob.pointer_slots.push_back(slot);
  }
  return blob;
}

SymbolBlob SymbolBlob::from_image(const Image& image) {
  SymbolBlob blob;
  blob.text_end = image.text_end;
  blob.layout_end = image.data_init_offset;
  blob.has_ldi_code_pointers = !image.ldi_code_pointers.empty();
  bool seen_movable = false;
  for (const Symbol& s : image.functions()) {
    blob.function_addrs.push_back(s.addr);
    blob.function_sizes.push_back(s.size);
    if (s.movable && !seen_movable) {
      blob.first_movable = s.addr;
      seen_movable = true;
    }
  }
  blob.pointer_slots = image.pointer_slots;
  return blob;
}

}  // namespace mavr::toolchain
