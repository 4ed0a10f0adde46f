// Output-port device that records every write with its timestamp.
//
// Two roles in the reproduction:
//  * the watchdog *feed line* the application toggles each control-loop
//    iteration and the master processor monitors to detect failed attacks
//    (paper §V-A2, §VI-A);
//  * servo/actuator outputs, whose write trace is the observable behaviour
//    used by the semantic-preservation tests (randomized firmware must
//    produce a bit-identical trace).
#pragma once

#include <cstdint>
#include <vector>

#include "avr/io.hpp"

namespace mavr::avr {

class OutputPort {
 public:
  struct Write {
    std::uint64_t cycle;
    std::uint8_t value;
    bool operator==(const Write&) const = default;
  };

  /// Registers the port at data-space address `addr`. When `record_history`
  /// is set every write is kept (trace comparison); otherwise only the last
  /// write survives (cheap watchdog feed line).
  OutputPort(IoBus& bus, std::uint16_t addr, bool record_history);

  std::uint8_t value() const { return value_; }

  /// Cycle of the most recent firmware write (0 when never written).
  std::uint64_t last_write_cycle() const { return last_write_cycle_; }

  std::uint64_t write_count() const { return write_count_; }

  const std::vector<Write>& history() const { return history_; }

  /// Power-on: never written, empty history.
  void power_on() {
    value_ = 0;
    last_write_cycle_ = 0;
    write_count_ = 0;
    history_.clear();
  }

 private:
  void write(std::uint8_t v);  ///< dispatched firmware-store handler

  IoBus& bus_;  ///< write timestamps come from the bus clock
  std::uint16_t addr_;
  std::uint8_t value_ = 0;
  std::uint64_t last_write_cycle_ = 0;
  std::uint64_t write_count_ = 0;
  bool record_history_;
  std::vector<Write> history_;
};

/// Input-port device whose value the simulation harness sets and the
/// firmware reads (sensor front-ends). The value is a latched RAM-backed
/// register — firmware reads are plain RAM loads, no dispatch.
class InputPort {
 public:
  InputPort(IoBus& bus, std::uint16_t addr);

  void set(std::uint8_t value) { bus_.poke(addr_, value); }
  std::uint8_t value() const { return bus_.peek(addr_); }

 private:
  IoBus& bus_;
  std::uint16_t addr_;
};

}  // namespace mavr::avr
