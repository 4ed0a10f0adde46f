// Periodic compare-match timer — the interrupt source that gives the
// autopilot its real-time tick (the paper's "numerous interrupts with
// strict timetables", §III).
//
// Minimal model: fires every `period_cycles`; a single pending flag
// (unserviced overflows collapse, like a compare-match flag). The timer is
// the canonical deadline-bearing device of the event-driven I/O bus: it
// reports its next compare match through next_event_cycles() so the CPU
// only dispatches tick() on the instruction that crosses it, and catch-up
// over an arbitrary gap is closed-form rather than a per-period loop.
#pragma once

#include <cstdint>

#include "avr/io.hpp"
#include "support/error.hpp"

namespace mavr::avr {

class Timer : public Tickable {
 public:
  /// What running changes: whether a compare match is pending and how
  /// many have fired. The default value is the power-on state. The next
  /// compare match is not stored: it is always one period past the last
  /// fired one, at (fires + 1) * period.
  struct State {
    bool pending = false;
    std::uint64_t fires = 0;
  };

  /// `period_cycles` must be nonzero: a zero period would schedule the
  /// next compare match zero cycles ahead, forever.
  Timer(IoBus& bus, std::uint64_t period_cycles)
      : bus_(bus), period_(period_cycles) {
    MAVR_REQUIRE(period_cycles > 0, "timer period must be nonzero");
    bus.add_tickable(this);
  }

  /// Interrupt-line query for Cpu::set_irq_line: true when pending
  /// (clears the flag — the hardware ack on vector entry).
  bool take_irq() {
    const bool was = state_.pending;
    state_.pending = false;
    return was;
  }

  bool pending() const { return state_.pending; }
  std::uint64_t fires() const { return state_.fires; }

  const State& state() const { return state_; }
  void restore(const State& state) { state_ = state; }

  /// Power-on: first compare match one period after cycle 0, nothing
  /// pending or fired.
  void power_on() { restore(State{}); }

  void tick(std::uint64_t now_cycles) override {
    const std::uint64_t next = next_event_cycles();
    if (now_cycles < next) return;
    // Closed-form catch-up: identical fires()/pending semantics to a
    // `while (now >= next) next += period` loop, in O(1) for any gap.
    state_.fires += (now_cycles - next) / period_ + 1;
    state_.pending = true;
    bus_.raise_irq();
  }

  std::uint64_t next_event_cycles() const override {
    return (state_.fires + 1) * period_;
  }

 private:
  IoBus& bus_;
  std::uint64_t period_;
  State state_;
};

}  // namespace mavr::avr
