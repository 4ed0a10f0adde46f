// Bounded execution-trace sink: a ring buffer of fixed-size events fed by
// the Cpu's Tracer hooks (and, through trace::Session, by the UART tap),
// exportable as JSONL or CSV for offline analysis.
//
// The ring keeps the *last* `capacity` events and counts what it dropped —
// when a stealthy attack ends in a clean return, the interesting part of
// the timeline is the tail, not the boot sequence.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "avr/cpu.hpp"

namespace mavr::trace {

enum class EventKind : std::uint8_t {
  Retire,        ///< a=cycles taken
  Call,          ///< a=to_words, b=ret_words (pushed return address)
  Ret,           ///< a=to_words (masked), b=raw popped target
  Irq,           ///< a=vector slot, b=from_words
  SpChange,      ///< a=old SP, b=new SP
  Load,          ///< a=data address, b=value
  Store,         ///< a=data address, b=value
  Fault,         ///< a=opcode, b=raw target of the last RET before the fault
  UartTx,        ///< a=byte the firmware transmitted
  UartRx,        ///< a=byte the firmware consumed
  UartUnderrun,  ///< data-register read with nothing ready
  WatchHit,      ///< a=watchpoint id, b=offending value (SP or address)
};

inline constexpr std::uint32_t mask_of(EventKind kind) {
  return 1u << static_cast<unsigned>(kind);
}

/// Every event class except the per-instruction Retire/Load/Store firehose —
/// the right default for long runs where only control flow and line traffic
/// matter.
inline constexpr std::uint32_t kDefaultMask =
    mask_of(EventKind::Call) | mask_of(EventKind::Ret) |
    mask_of(EventKind::Irq) | mask_of(EventKind::SpChange) |
    mask_of(EventKind::Fault) | mask_of(EventKind::UartTx) |
    mask_of(EventKind::UartRx) | mask_of(EventKind::UartUnderrun) |
    mask_of(EventKind::WatchHit);

inline constexpr std::uint32_t kAllEvents = 0xFFFFFFFFu;

/// One trace record. `a`/`b` are kind-specific (see EventKind); `op` is the
/// avr::Op only for Retire events.
struct Event {
  EventKind kind = EventKind::Retire;
  std::uint8_t op = 0;
  std::uint64_t cycle = 0;
  std::uint32_t pc_words = 0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
};

class ExecutionTrace : public avr::Tracer {
 public:
  /// `capacity` must be non-zero; `mask` selects which EventKinds to keep.
  explicit ExecutionTrace(std::size_t capacity = std::size_t{1} << 16,
                          std::uint32_t mask = kDefaultMask);

  std::uint32_t mask() const { return mask_; }
  std::size_t capacity() const { return buffer_.size(); }

  /// Appends an event, evicting the oldest when full. Honors the mask.
  void record(const Event& event);

  /// Events currently held (<= capacity), oldest first via at().
  std::size_t size() const { return count_; }
  const Event& at(std::size_t index) const;

  std::uint64_t total_recorded() const { return total_; }
  std::uint64_t dropped() const { return total_ - count_; }
  void clear();

  /// One JSON object per line, oldest event first; fields are named per
  /// kind so downstream tooling never touches the raw a/b slots.
  std::string jsonl() const;
  /// Flat CSV (kind,cycle,pc_words,op,a,b) with a header row.
  std::string csv() const;

  // --- Tracer hooks ----------------------------------------------------------
  void on_retire(const avr::Cpu& cpu, std::uint32_t pc_words,
                 const avr::Instr& instr, std::uint32_t cycles) override;
  void on_call(const avr::Cpu& cpu, std::uint32_t from_words,
               std::uint32_t to_words, std::uint32_t ret_words) override;
  void on_ret(const avr::Cpu& cpu, std::uint32_t from_words,
              std::uint32_t to_words, std::uint32_t raw_words,
              bool reti) override;
  void on_irq(const avr::Cpu& cpu, std::uint8_t slot,
              std::uint32_t from_words) override;
  void on_sp_change(const avr::Cpu& cpu, std::uint16_t old_sp,
                    std::uint16_t new_sp) override;
  void on_load(const avr::Cpu& cpu, std::uint32_t addr,
               std::uint8_t value) override;
  void on_store(const avr::Cpu& cpu, std::uint32_t addr,
                std::uint8_t value) override;
  void on_fault(const avr::Cpu& cpu, const avr::FaultInfo& info) override;

 private:
  std::vector<Event> buffer_;
  std::size_t head_ = 0;   ///< index of the oldest event
  std::size_t count_ = 0;
  std::uint64_t total_ = 0;
  std::uint32_t mask_;
};

}  // namespace mavr::trace
