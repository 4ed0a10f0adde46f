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

  /// What firmware writes change. The default value is the power-on
  /// state: never written, empty history.
  struct State {
    std::uint8_t value = 0;
    std::uint64_t last_write_cycle = 0;  ///< 0 when never written
    std::uint64_t write_count = 0;
    std::vector<Write> history;  ///< every write, when recording
  };

  /// Registers the port at data-space address `addr`. When `record_history`
  /// is set every write is kept (trace comparison); otherwise only the last
  /// write survives (cheap watchdog feed line).
  OutputPort(IoBus& bus, std::uint16_t addr, bool record_history);

  std::uint8_t value() const { return state_.value; }

  /// Cycle of the most recent firmware write (0 when never written).
  std::uint64_t last_write_cycle() const { return state_.last_write_cycle; }

  std::uint64_t write_count() const { return state_.write_count; }

  const std::vector<Write>& history() const { return state_.history; }

  const State& state() const { return state_; }
  void restore(const State& state) { state_ = state; }

  void power_on() { restore(State{}); }

 private:
  void write(std::uint8_t v);  ///< dispatched firmware-store handler

  IoBus& bus_;  ///< write timestamps come from the bus clock
  std::uint16_t addr_;
  bool record_history_;
  State state_;
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
