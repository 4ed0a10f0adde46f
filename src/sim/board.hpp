// Simulated ArduPilot Mega 2.5 board: the ATmega2560 application processor
// wired to its telemetry USART, sensor front-ends, servo outputs and the
// MAVR feed line (paper Fig. 7/8).
//
// Also models the two hardware security mechanisms the defense relies on:
//  * the serial *bootloader* the master processor programs the application
//    processor through (paper §VI-B4) — entered by asserting RESET, pages
//    written to flash, wear counted against the 10,000-cycle endurance;
//  * the *readout-protection fuse* (paper §V-A3): once set, any attempt to
//    dump the flash (i.e. the randomized binary) is refused.
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "avr/cpu.hpp"
#include "avr/gpio.hpp"
#include "avr/timer.hpp"
#include "avr/uart.hpp"
#include "firmware/generator.hpp"
#include "support/bytes.hpp"
#include "support/fault.hpp"

namespace mavr::sim {

/// One 16-bit little-endian sensor channel exposed as two input ports.
class Sensor16 {
 public:
  Sensor16(avr::IoBus& bus, std::uint16_t addr)
      : lo_(bus, addr), hi_(bus, static_cast<std::uint16_t>(addr + 1)) {}

  void set(std::int16_t value) {
    lo_.set(static_cast<std::uint8_t>(value & 0xFF));
    hi_.set(static_cast<std::uint8_t>((value >> 8) & 0xFF));
  }

 private:
  avr::InputPort lo_;
  avr::InputPort hi_;
};

class Board {
 public:
  /// `baud` is the telemetry line rate (paper prototype: 115200).
  explicit Board(std::uint32_t baud = 115200);

  // --- Programming ----------------------------------------------------------
  /// Direct flash programming (host flashing path; counts one write cycle).
  /// Refused while readout protection is set and the caller is not the
  /// bootloader — use the bootloader interface instead.
  void flash_image(std::span<const std::uint8_t> image);

  /// Enables the readout-protection fuse (irreversible short of a chip
  /// erase, like the real lock bits).
  void set_readout_protection() { readout_protected_ = true; }
  bool readout_protected() const { return readout_protected_; }

  /// Dumps the flash contents — the attacker's static-analysis path.
  /// Throws support::PreconditionError when the fuse is set (paper §V-D:
  /// "there is no way for an attacker to gain access to the randomized
  /// code").
  support::Bytes read_flash() const;

  // --- Bootloader (master-processor facing) ----------------------------------
  /// Asserts RESET and sends the bootloader magic: core halts, flash
  /// writable page by page.
  void bootloader_enter();
  bool in_bootloader() const { return in_bootloader_; }
  /// Chip erase (begins a programming cycle; counts flash wear). Like the
  /// real part's lock bits, the erase also clears the readout-protection
  /// fuse — which is what lets the master verify its pages by readback
  /// before re-arming the fuse.
  void bootloader_erase();
  /// Programs one page. `byte_addr` must be page aligned and the write
  /// must fit inside the part's flash — both validated up front. When a
  /// fault plane is attached, the program pulse can fail and leave the
  /// page erased (the master's readback verify is what catches this).
  void bootloader_write_page(std::uint32_t byte_addr,
                             std::span<const std::uint8_t> page);
  /// Reads `len` flash bytes back through the bootloader (the master's
  /// page-verify path). Refused once the readout-protection fuse is set.
  support::Bytes bootloader_read_page(std::uint32_t byte_addr,
                                      std::uint32_t len) const;
  /// Leaves the bootloader and restarts the application from reset.
  void bootloader_run_application();

  /// Attaches (or clears, with nullptr) a fault-injection plane on the
  /// internal-flash programming path. The plane must outlive the board.
  void attach_faults(support::FaultPlane* plane) { faults_ = plane; }

  /// Completed flash programming cycles — measured against the part's
  /// 10,000-cycle endurance (paper §VI-A).
  std::uint32_t flash_write_cycles() const { return flash_write_cycles_; }

  // --- Execution ----------------------------------------------------------------
  /// Hard reset of the application core (data memory cleared, PC = 0).
  /// The cycle counter and every device keep running: one timeline.
  void reset();

  /// Returns a used board to the exact state of a freshly constructed one,
  /// so a worker can run trial after trial on one board (and its mapped
  /// code caches) instead of building a new one each time. Flash erased,
  /// EEPROM blank, CPU counters and tier stats zero; tracer,
  /// fault plane and UART tap detached; UART, timer, output ports, latched
  /// inputs and bus clock at power-on; fuse, bootloader and endurance
  /// fields cleared. Unlike reset(), it restarts the whole timeline.
  void power_on();

  /// Everything flying changes, by value: the core (with its data space,
  /// EEPROM and bus state) and the state of every device. Flash, fuse,
  /// bootloader and endurance fields are not in it, nor any cache.
  struct Snapshot {
    avr::Cpu::Snapshot cpu;
    avr::Uart::State uart;
    avr::Timer::State timer;
    std::array<avr::OutputPort::State, 4> servos;
    avr::OutputPort::State feed;
    avr::OutputPort::State led;
  };
  Snapshot save() const;
  /// Puts a snapshot back: the devices first, then the core, whose bus
  /// re-reads the timer's deadline. The snapshot must come from a board
  /// running the same flash; restore() never touches flash, a cache or a
  /// generation counter. Tracer, UART tap and fault plane stay attached.
  void restore(const Snapshot& snapshot);

  /// Runs the application for `cycles` CPU cycles (no-op in bootloader).
  void run_cycles(std::uint64_t cycles);

  /// True when the core faulted (invalid opcode — "executing garbage").
  bool crashed() const {
    return cpu_.state() == avr::CpuState::Faulted;
  }

  // --- Peripherals ----------------------------------------------------------------
  avr::Cpu& cpu() { return cpu_; }
  const avr::Cpu& cpu() const { return cpu_; }
  avr::Uart& telemetry() { return *uart_; }

  void set_gyro(int axis, std::int16_t value) { gyro_[axis]->set(value); }
  void set_acc(int axis, std::int16_t value) { acc_[axis]->set(value); }

  avr::OutputPort& servo(int channel) { return *servo_[channel]; }
  avr::OutputPort& feed_line() { return *feed_; }
  avr::OutputPort& led() { return *led_; }
  avr::Timer& tick_timer() { return *timer_; }

 private:
  avr::Cpu cpu_;
  std::unique_ptr<avr::Uart> uart_;
  std::unique_ptr<Sensor16> gyro_[3];
  std::unique_ptr<Sensor16> acc_[3];
  std::unique_ptr<avr::OutputPort> servo_[4];
  std::unique_ptr<avr::OutputPort> feed_;
  std::unique_ptr<avr::OutputPort> led_;
  std::unique_ptr<avr::Timer> timer_;
  support::FaultPlane* faults_ = nullptr;
  bool readout_protected_ = false;
  bool in_bootloader_ = false;
  bool erased_this_session_ = false;
  std::uint32_t flash_write_cycles_ = 0;
};

}  // namespace mavr::sim
