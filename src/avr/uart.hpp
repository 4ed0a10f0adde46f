// Polled USART device: the telemetry port through which the ground station
// speaks MAVLink to the autopilot (paper Fig. 3) and through which the
// master processor programs the application processor (paper §VI-B4).
//
// Receive timing is paced at the configured baud rate (10 bits per byte,
// 8N1), which is what makes the 115200-baud ≈ 11.5 bytes/ms bottleneck of
// Table II observable in simulation.
#pragma once

#include <cstdint>
#include <deque>
#include <span>

#include "avr/io.hpp"
#include "support/bytes.hpp"

namespace mavr::avr {

/// Register layout and line rate for one USART instance.
struct UartConfig {
  std::uint16_t data_addr;    ///< UDRn data-space address
  std::uint16_t status_addr;  ///< UCSRnA data-space address
  std::uint32_t clock_hz;     ///< CPU clock the pacing is derived from
  std::uint32_t baud;         ///< line rate (APM telemetry: 115200)
};

/// ATmega2560 USART0 at its real data-space addresses.
UartConfig usart0_config(std::uint32_t clock_hz, std::uint32_t baud);

/// UCSRnA status bits the firmware polls.
inline constexpr std::uint8_t kUartRxComplete = 0x80;  // RXCn
inline constexpr std::uint8_t kUartTxReady = 0x20;     // UDREn

/// Value UDRn reads as when the firmware reads with nothing received: an
/// idle 8N1 line rests at mark (all ones), so the data register shows 0xFF
/// rather than a fabricated 0x00 that could masquerade as real payload.
inline constexpr std::uint8_t kUartIdleLine = 0xFF;

/// Observation hooks for line activity, cycle-stamped with the simulated
/// clock. Lets a tracer place host-visible MAVLink bytes on the same
/// timeline as the instruction stream (see trace::Session).
class UartTap {
 public:
  virtual ~UartTap() = default;
  /// Firmware wrote a byte to UDRn (transmit toward the host).
  virtual void on_tx(std::uint64_t cycle, std::uint8_t byte) {
    (void)cycle, (void)byte;
  }
  /// Firmware consumed a received byte from UDRn.
  virtual void on_rx(std::uint64_t cycle, std::uint8_t byte) {
    (void)cycle, (void)byte;
  }
  /// Firmware read UDRn with no byte ready (saw kUartIdleLine).
  virtual void on_rx_underrun(std::uint64_t cycle) { (void)cycle; }
};

class Uart {
 public:
  /// One received byte and the cycle it has fully arrived by.
  struct Pending {
    std::uint64_t ready_at;
    std::uint8_t byte;
    bool operator==(const Pending&) const = default;
  };

  /// What the line and the firmware change. The default value is the
  /// power-on state: both directions empty, pacing cursor and underrun
  /// count at zero.
  struct State {
    std::uint64_t rx_cursor = 0;  ///< pacing cursor for arriving bytes
    std::uint64_t rx_underruns = 0;
    std::deque<Pending> rx;
    support::Bytes tx;
  };

  /// Throws support::PreconditionError when the config is unusable
  /// (zero baud or clock would make the pacing divide by zero).
  Uart(IoBus& bus, const UartConfig& config);

  // --- Host (simulation harness) side --------------------------------------
  /// Queues bytes for the firmware, paced at the line rate starting from the
  /// current simulated time.
  void host_send(std::span<const std::uint8_t> bytes);

  /// Takes everything the firmware transmitted so far.
  support::Bytes host_take_tx();

  /// Bytes queued but not yet consumed by the firmware.
  std::size_t rx_backlog() const { return state_.rx.size(); }

  /// Data-register reads that found no byte ready (firmware raced the line
  /// or polled without checking RXCn). Exported by the trace layer.
  std::uint64_t rx_underruns() const { return state_.rx_underruns; }

  /// Installs (or clears, with nullptr) the line-activity observer. Not
  /// owned; must outlive the attachment.
  void set_tap(UartTap* tap) { tap_ = tap; }
  UartTap* tap() const { return tap_; }

  const State& state() const { return state_; }
  /// Puts `state` back; the tap is left as it is.
  void restore(const State& state) { state_ = state; }

  /// Power-on: restore(State{}) with the tap detached.
  void power_on();

  /// Simulated cycles needed to transfer `count` bytes at the line rate.
  std::uint64_t cycles_for_bytes(std::uint64_t count) const {
    return count * cycles_per_byte_;
  }

 private:
  std::uint8_t read_status() const;
  std::uint8_t read_data();

  /// Current simulated time: the pacing no longer needs a per-instruction
  /// tick — the bus clock carries the same post-retire cycle count the old
  /// tick() broadcast delivered.
  std::uint64_t now() const { return bus_.now(); }

  IoBus& bus_;
  std::uint64_t cycles_per_byte_;
  State state_;
  UartTap* tap_ = nullptr;
};

}  // namespace mavr::avr
