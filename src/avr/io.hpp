// Memory-mapped I/O dispatch for the simulated AVR.
//
// Devices (UART, SPI, GPIO, timer) register read/write handlers for
// data-space addresses in the I/O region; everything else behaves as plain
// RAM. Dispatch is dense-table based: one handler slot per address in
// [0, kExtIoEnd) plus a byte map of dispatch flags, so the interpreter's
// RAM fast path costs a single indexed test and the device path a single
// indirect call (no hashing, no double lookup).
//
// Peripheral time advances event-driven rather than per instruction: the
// bus caches the earliest `next_event_cycles()` deadline across registered
// Tickables and the CPU dispatches tick() only when its cycle counter
// crosses that deadline. Devices that merely need to know "what time is
// it" (UART pacing, output-port timestamps) read the bus clock, which the
// CPU publishes with one store per retired instruction — the same value
// the old per-instruction tick() broadcast delivered.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "avr/mcu.hpp"
#include "support/error.hpp"

namespace mavr::avr {

/// Deadline value meaning "this device never needs an unsolicited tick".
inline constexpr std::uint64_t kNoDeadline = ~std::uint64_t{0};

/// Interface for peripherals that need to observe simulated time.
class Tickable {
 public:
  virtual ~Tickable() = default;

  /// Called with the new absolute cycle count whenever the CPU crosses the
  /// device's reported deadline (and on every explicit IoBus::tick()).
  virtual void tick(std::uint64_t now_cycles) = 0;

  /// Absolute cycle at which this device next changes state on its own
  /// (timer compare match, ...). The bus re-queries this after every
  /// dispatched tick; kNoDeadline opts out of unsolicited ticks entirely.
  virtual std::uint64_t next_event_cycles() const { return kNoDeadline; }
};

/// Address-dispatched I/O: maps data-space addresses to device handlers.
///
/// Handlers are plain function pointers with a context argument rather
/// than std::function — dispatched accesses sit on the interpreter's and
/// the superblock tier's hottest path, and the extra trampoline
/// indirection of a type-erased callable is measurable there.
class IoBus {
 public:
  using ReadFn = std::uint8_t (*)(void*);
  using WriteFn = void (*)(void*, std::uint8_t);

  /// Bits in the per-address dispatch map.
  static constexpr std::uint8_t kHandlesRead = 0x01;
  static constexpr std::uint8_t kHandlesWrite = 0x02;

  /// What running changes on the bus: the clock, the interrupt hint and
  /// the latched registers' shadow. The default value is the power-on
  /// state (every modelled device latches zero at registration). The tick
  /// deadline is not in it: it is re-read from the devices.
  struct State {
    std::uint64_t now = 0;
    bool irq_hint = true;
    std::vector<std::uint8_t> latch_shadow =
        std::vector<std::uint8_t>(kExtIoEnd, 0);
  };

  IoBus()
      : reads_(kExtIoEnd),
        writes_(kExtIoEnd),
        dispatch_(kExtIoEnd, 0),
        latched_(kExtIoEnd, 0) {}

  /// Registers a read handler for data-space address `addr`. The address
  /// must fall inside the memory-mapped I/O region — a handler above
  /// kExtIoEnd would be unreachable through load/store dispatch.
  void on_read(std::uint16_t addr, ReadFn fn, void* ctx) {
    MAVR_REQUIRE(addr < kExtIoEnd, "I/O read handler outside the I/O region");
    MAVR_REQUIRE(!(dispatch_[addr] & kHandlesRead) && !latched_[addr],
                 "duplicate I/O read handler");
    reads_[addr] = Handler<ReadFn>{fn, ctx};
    dispatch_[addr] |= kHandlesRead;
    ++handler_gen_;
  }

  /// Registers a write handler for data-space address `addr`.
  void on_write(std::uint16_t addr, WriteFn fn, void* ctx) {
    MAVR_REQUIRE(addr < kExtIoEnd, "I/O write handler outside the I/O region");
    MAVR_REQUIRE(!(dispatch_[addr] & kHandlesWrite),
                 "duplicate I/O write handler");
    writes_[addr] = Handler<WriteFn>{fn, ctx};
    dispatch_[addr] |= kHandlesWrite;
    ++handler_gen_;
  }

  // --- Latched (RAM-backed) registers ---------------------------------------
  /// A register whose reads are pure — a byte the device latches and the
  /// firmware merely observes (sensor inputs, port readback) — skips read
  /// dispatch entirely: the device keeps the byte directly in CPU data
  /// RAM via poke(), and firmware loads take the plain-RAM path. The bus
  /// shadows every poke so latched values survive a CPU reset (which
  /// clears data RAM), matching the device-side members they replace.
  ///
  /// A firmware *store* to a latched address lands in RAM like any
  /// unhandled store and is visible to subsequent loads until the next
  /// poke; no modelled device shares an address between a firmware output
  /// and a latched input, so this is unobservable in practice.
  void bind_backing(std::uint8_t* ram) { backing_ = ram; }

  /// Claims `addr` as a latched register (same uniqueness rules as a read
  /// handler — the two are mutually exclusive per address).
  void make_latched(std::uint16_t addr) {
    MAVR_REQUIRE(addr < kExtIoEnd, "latched register outside the I/O region");
    MAVR_REQUIRE(!(dispatch_[addr] & kHandlesRead) && !latched_[addr],
                 "duplicate I/O read handler");
    MAVR_REQUIRE(backing_ != nullptr, "latched register before bind_backing");
    latched_[addr] = 1;
    latch_addrs_.push_back(addr);
  }

  /// Device-side write of a latched register.
  void poke(std::uint16_t addr, std::uint8_t value) {
    backing_[addr] = value;
    state_.latch_shadow[addr] = value;
  }

  /// Device-side read-back of a latched register.
  std::uint8_t peek(std::uint16_t addr) const { return backing_[addr]; }

  /// Re-seeds latched registers into freshly cleared data RAM. Called by
  /// the CPU at the tail of reset().
  void restore_latches() {
    for (const std::uint16_t addr : latch_addrs_) {
      backing_[addr] = state_.latch_shadow[addr];
    }
  }

  const State& state() const { return state_; }

  /// Puts `state` back and re-reads the deadline from the devices, which
  /// must already hold the state that goes with it. Registrations are
  /// kept.
  void restore(const State& state) {
    state_ = state;
    refresh_deadline();
  }

  /// Power-on: restore(State{}), after the devices' own power_on().
  void power_on() { restore(State{}); }

  /// Registers a device for time advancement.
  void add_tickable(Tickable* device) {
    tickables_.push_back(device);
    refresh_deadline();
  }

  /// True when a device handles reads at `addr` (single table lookup).
  bool handles_read(std::uint32_t addr) const {
    return addr < kExtIoEnd && (dispatch_[addr] & kHandlesRead) != 0;
  }

  /// True when a device handles writes at `addr`.
  bool handles_write(std::uint32_t addr) const {
    return addr < kExtIoEnd && (dispatch_[addr] & kHandlesWrite) != 0;
  }

  /// Dispatches a device read. Precondition: handles_read(addr).
  std::uint8_t read(std::uint32_t addr) const {
    const Handler<ReadFn>& h = reads_[addr];
    return h.fn(h.ctx);
  }

  /// Dispatches a device write. Precondition: handles_write(addr).
  void write(std::uint32_t addr, std::uint8_t value) const {
    const Handler<WriteFn>& h = writes_[addr];
    h.fn(h.ctx, value);
  }

  /// Per-address dispatch-flag map over [0, kExtIoEnd) — the single
  /// indexed test DataMemory::load/store consult on the hot path.
  const std::uint8_t* dispatch_map() const { return dispatch_.data(); }

  /// Bumped on every handler registration. The superblock translator
  /// resolves the dispatch map statically; its cache keys translations to
  /// this value so a late registration forces retranslation.
  std::uint64_t handler_generation() const { return handler_gen_; }

  // --- Interrupt hint --------------------------------------------------------
  /// Raised by devices when an interrupt condition goes pending. The CPU
  /// only walks its interrupt lines (type-erased callbacks) while the hint
  /// is up, clearing it after a poll finds nothing pending — so quiescent
  /// stretches cost one byte test per instruction instead of an indirect
  /// call. step()/run() entry re-raises the hint, so pending state flipped
  /// from outside the simulation loop is still noticed.
  void raise_irq() { state_.irq_hint = true; }
  bool irq_hint() const { return state_.irq_hint; }
  void clear_irq_hint() { state_.irq_hint = false; }

  // --- Simulated clock -------------------------------------------------------
  /// Publishes the CPU cycle counter after a retired instruction. Devices
  /// observe this value through now(); it deliberately excludes the cycles
  /// of an in-flight interrupt dispatch, matching the timing the old
  /// per-instruction tick() broadcast exposed.
  void set_now(std::uint64_t now_cycles) { state_.now = now_cycles; }

  /// Current simulated time as seen by devices.
  std::uint64_t now() const { return state_.now; }

  // --- Event-driven ticking --------------------------------------------------
  /// Earliest deadline across registered devices; the CPU compares one
  /// uint64 against this per instruction and dispatches nothing until it
  /// is crossed.
  std::uint64_t next_deadline() const { return deadline_; }

  /// Dispatches tick() to every registered device and re-caches the
  /// earliest deadline. Called by the CPU when now_cycles crosses
  /// next_deadline(), and usable directly as the legacy "advance all
  /// devices" entry point.
  void tick(std::uint64_t now_cycles) {
    state_.now = now_cycles;
    for (Tickable* device : tickables_) device->tick(now_cycles);
    refresh_deadline();
  }

 private:
  template <typename Fn>
  struct Handler {
    Fn fn = nullptr;
    void* ctx = nullptr;
  };

  void refresh_deadline() {
    std::uint64_t min = kNoDeadline;
    for (const Tickable* device : tickables_) {
      const std::uint64_t next = device->next_event_cycles();
      if (next < min) min = next;
    }
    deadline_ = min;
  }

  std::vector<Handler<ReadFn>> reads_;
  std::vector<Handler<WriteFn>> writes_;
  std::vector<std::uint8_t> dispatch_;
  std::vector<std::uint8_t> latched_;
  std::vector<std::uint16_t> latch_addrs_;
  std::uint8_t* backing_ = nullptr;
  std::uint64_t handler_gen_ = 0;
  std::vector<Tickable*> tickables_;
  std::uint64_t deadline_ = kNoDeadline;
  State state_;
};

}  // namespace mavr::avr
