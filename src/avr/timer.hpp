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
  /// `period_cycles` must be nonzero: a zero period would schedule the
  /// next compare match zero cycles ahead, forever.
  Timer(IoBus& bus, std::uint64_t period_cycles)
      : bus_(bus), period_(period_cycles), next_(period_cycles) {
    MAVR_REQUIRE(period_cycles > 0, "timer period must be nonzero");
    bus.add_tickable(this);
  }

  /// Interrupt-line query for Cpu::set_irq_line: true when pending
  /// (clears the flag — the hardware ack on vector entry).
  bool take_irq() {
    const bool was = pending_;
    pending_ = false;
    return was;
  }

  bool pending() const { return pending_; }
  std::uint64_t fires() const { return fires_; }

  /// Power-on: first compare match one period after cycle 0, nothing
  /// pending or fired.
  void power_on() {
    next_ = period_;
    pending_ = false;
    fires_ = 0;
  }

  void tick(std::uint64_t now_cycles) override {
    if (now_cycles < next_) return;
    // Closed-form catch-up: identical fires()/pending semantics to the old
    // `while (now >= next_) next_ += period_` loop, in O(1) for any gap.
    const std::uint64_t elapsed_fires = (now_cycles - next_) / period_ + 1;
    fires_ += elapsed_fires;
    next_ += elapsed_fires * period_;
    pending_ = true;
    bus_.raise_irq();
  }

  std::uint64_t next_event_cycles() const override { return next_; }

 private:
  IoBus& bus_;
  std::uint64_t period_;
  std::uint64_t next_;
  bool pending_ = false;
  std::uint64_t fires_ = 0;
};

}  // namespace mavr::avr
