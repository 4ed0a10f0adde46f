// Harvard-architecture memories of the simulated AVR (paper §II-B, Fig. 1):
// a word-addressed program flash that only the bootloader can write, a
// single linear data space holding the register file, I/O and SRAM, and a
// small EEPROM. Data memory is never executable; program memory is not
// readable as data except through LPM — the properties that force attackers
// into code reuse (paper §III).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "avr/io.hpp"
#include "avr/mcu.hpp"
#include "support/bytes.hpp"
#include "support/error.hpp"
#include "support/zero_pages.hpp"

namespace mavr::avr {

/// Word-addressed program flash. The words sit on their own mapping
/// rather than on the heap, so a worker thread's board hands its flash
/// back to the system when the thread exits instead of leaving it resident
/// in that thread's malloc arena.
class ProgramMemory {
 public:
  explicit ProgramMemory(const McuSpec& spec)
      : words_(spec.flash_words()),
        word_mask_(std::has_single_bit(spec.flash_words())
                       ? spec.flash_words() - 1
                       : 0) {
    std::fill_n(words_.data(), words_.size(), std::uint16_t{0xFFFF});
  }

  std::uint32_t size_words() const {
    return static_cast<std::uint32_t>(words_.size());
  }
  std::uint32_t size_bytes() const { return size_words() * 2; }

  /// Fetches the word at `word_addr` (wraps like real hardware so a runaway
  /// PC keeps "executing garbage" instead of crashing the simulator). Every
  /// real part has a power-of-two flash, so the wrap is a mask — the modulo
  /// is only a fallback for synthetic non-power-of-two specs.
  std::uint16_t word(std::uint32_t word_addr) const {
    return words_[wrap_word(word_addr)];
  }

  /// Byte view used by LPM/ELPM: AVR words are little-endian in byte space.
  std::uint8_t byte(std::uint32_t byte_addr) const {
    const std::uint16_t w = word(byte_addr / 2);
    return static_cast<std::uint8_t>((byte_addr & 1) ? (w >> 8) : (w & 0xFF));
  }

  /// Erases the whole flash to 0xFFFF (bootloader chip-erase).
  void erase();

  /// Programs raw bytes starting at byte address 0 (bootloader path).
  /// Throws PreconditionError when the image exceeds the part's flash.
  void program(std::span<const std::uint8_t> image);

  /// Programs one page at `byte_addr` (must be page aligned by the caller).
  void program_page(std::uint32_t byte_addr,
                    std::span<const std::uint8_t> page);

  /// Monotonic counter incremented by every erase/program; used by the CPU
  /// decode cache to know when cached decodes are stale.
  std::uint64_t generation() const { return generation_; }

  /// Copies `len` bytes starting at `byte_addr` out of the flash in one
  /// pass (bootloader readback). Throws PreconditionError when the range
  /// leaves the flash; the check cannot wrap.
  support::Bytes read_bytes(std::uint32_t byte_addr, std::uint32_t len) const;

  /// Copies the flash contents out as bytes (test/verification support;
  /// the readout-protection policy is enforced one level up, in sim::Board).
  support::Bytes dump() const { return read_bytes(0, size_bytes()); }

 private:
  std::uint32_t wrap_word(std::uint32_t word_addr) const {
    return word_mask_ != 0
               ? (word_addr & word_mask_)
               : (word_addr % static_cast<std::uint32_t>(words_.size()));
  }

  support::ZeroPages<std::uint16_t> words_;
  std::uint32_t word_mask_;
  std::uint64_t generation_ = 0;
};

/// Single linear data space: registers + I/O + SRAM (paper Fig. 1).
/// All of it is readable and writable by program stores — including the
/// register file and the stack-pointer bytes, which is exactly what the
/// paper's stk_move and write_mem gadgets exploit.
///
/// load/store are the interpreter's hottest memory path: after the wrap
/// check, addresses at or above the I/O region (every SRAM access) go
/// straight to the backing array, and addresses inside it consult the
/// bus's dispatch-flag byte map — one indexed test — before falling back
/// to RAM or making one indirect handler call.
class DataMemory {
 public:
  DataMemory(const McuSpec& spec, IoBus& io)
      : bytes_(spec.data_space_bytes(), 0),
        size_(spec.data_space_bytes()),
        io_(io) {}

  std::uint32_t size() const { return size_; }

  /// Load with I/O-device dispatch (used by the executing program).
  std::uint8_t load(std::uint32_t addr) {
    addr = wrap(addr);
    if (addr >= kExtIoEnd) [[likely]] return bytes_[addr];
    if (io_.dispatch_map()[addr] & IoBus::kHandlesRead) return io_.read(addr);
    return bytes_[addr];
  }

  /// Store with I/O-device dispatch (used by the executing program).
  void store(std::uint32_t addr, std::uint8_t value) {
    addr = wrap(addr);
    if (addr >= kExtIoEnd) [[likely]] {
      bytes_[addr] = value;
      return;
    }
    if (io_.dispatch_map()[addr] & IoBus::kHandlesWrite) {
      io_.write(addr, value);
      return;
    }
    bytes_[addr] = value;
  }

  /// Raw access without device dispatch (CPU core registers, test peeks,
  /// stack snapshots for the Fig. 6 dumps).
  std::uint8_t raw(std::uint32_t addr) const { return bytes_[wrap(addr)]; }
  void set_raw(std::uint32_t addr, std::uint8_t value) {
    bytes_[wrap(addr)] = value;
  }

  /// Direct pointer to the backing storage (stable for the lifetime of the
  /// DataMemory — the vector never reallocates after construction). The
  /// interpreter keeps this for its register-file/SREG/SP accessors, whose
  /// addresses are compile-time constants well inside the data space.
  std::uint8_t* raw_data() { return bytes_.data(); }
  const std::uint8_t* raw_data() const { return bytes_.data(); }

  /// Snapshot `count` bytes starting at `addr` (wraps at data-space end).
  support::Bytes snapshot(std::uint32_t addr, std::uint32_t count) const;

  /// Clears everything to zero (power-on / reset).
  void clear();

 private:
  /// Data-space wrap. The common case (every architecturally generated
  /// address) is in range, so this costs one predictable compare; the
  /// modulo — data spaces are not powers of two, and masking would change
  /// where wild addresses land — only runs on out-of-range accesses.
  std::uint32_t wrap(std::uint32_t addr) const {
    if (addr < size_) [[likely]] return addr;
    return addr % size_;
  }

  std::vector<std::uint8_t> bytes_;
  std::uint32_t size_;
  IoBus& io_;
};

/// Persistent EEPROM configuration memory (paper Fig. 1; not mapped into
/// data or program space).
class Eeprom {
 public:
  explicit Eeprom(const McuSpec& spec) : bytes_(spec.eeprom_bytes, 0xFF) {}

  std::uint8_t read(std::uint32_t addr) const {
    MAVR_REQUIRE(addr < bytes_.size(), "EEPROM address out of range");
    return bytes_[addr];
  }
  void write(std::uint32_t addr, std::uint8_t value) {
    MAVR_REQUIRE(addr < bytes_.size(), "EEPROM address out of range");
    bytes_[addr] = value;
  }
  std::uint32_t size() const {
    return static_cast<std::uint32_t>(bytes_.size());
  }

  /// Blanks every cell to 0xFF, the erased state a new part ships in.
  void erase() { std::fill(bytes_.begin(), bytes_.end(), 0xFF); }

 private:
  std::vector<std::uint8_t> bytes_;
};

}  // namespace mavr::avr
