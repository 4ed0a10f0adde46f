// Configurable watchpoints over the traced execution: stack-pointer
// discipline watches and address-range read/write watches.
//
// SP watches come in two modes because of how the paper's V2 attack is
// built (§IV-C). The stk_move pivot loads SP with `buffer_addr - 1`, which
// is numerically *identical* to the bottom of the legitimate handler frame
// — so "SP dropped below the frame floor" fires for the benign prologue
// too and cannot isolate the pivot. What no legitimate execution ever does
// is run with SP *inside* a packet payload buffer: the first gadget-chain
// pop after the pivot moves SP into the buffer, and that is the exactly-
// once signal.
//
//  * SpWatchMode::Outside — fires when SP leaves [lo, hi]: classic stack
//    floor/ceiling discipline (catches V3's staging-area pivot, deep
//    recursion, stack exhaustion).
//  * SpWatchMode::Inside — fires when SP enters the forbidden zone
//    [lo, hi], e.g. an attacker-reachable packet buffer (catches V2).
//
// All watches are edge-triggered: one hit per excursion, re-armed when the
// condition clears, so a continuous violation episode reports once.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "avr/cpu.hpp"

namespace mavr::trace {

class ExecutionTrace;

enum class SpWatchMode {
  Outside,  ///< violation: SP outside [lo, hi]
  Inside,   ///< violation: SP inside [lo, hi]
};

struct WatchHit {
  int watch_id = 0;
  std::string label;
  std::uint64_t cycle = 0;
  std::uint32_t pc_words = 0;  ///< instruction that caused the hit
  std::uint32_t value = 0;     ///< offending SP value or data address
};

class Watchpoints : public avr::Tracer {
 public:
  /// Registers an SP watch; returns its id. [lo, hi] is inclusive.
  int watch_sp(std::uint16_t lo, std::uint16_t hi, SpWatchMode mode,
               std::string label = {});
  /// Data-space store / load watch on [lo, hi] (inclusive). Level-
  /// triggered per access: every matching access is a hit.
  int watch_write(std::uint32_t lo, std::uint32_t hi, std::string label = {});
  int watch_read(std::uint32_t lo, std::uint32_t hi, std::string label = {});

  const std::vector<WatchHit>& hits() const { return hits_; }
  std::uint64_t hit_count(int watch_id) const;

  /// When set, every hit is also recorded as a WatchHit event in `sink`.
  void set_sink(ExecutionTrace* sink) { sink_ = sink; }

  /// Low/high watermark of SP observed since attach — the empirical basis
  /// for choosing watch bounds.
  std::uint16_t sp_min() const { return sp_min_; }
  std::uint16_t sp_max() const { return sp_max_; }

  // --- Tracer hooks ----------------------------------------------------------
  void on_sp_change(const avr::Cpu& cpu, std::uint16_t old_sp,
                    std::uint16_t new_sp) override;
  void on_load(const avr::Cpu& cpu, std::uint32_t addr,
               std::uint8_t value) override;
  void on_store(const avr::Cpu& cpu, std::uint32_t addr,
                std::uint8_t value) override;

 private:
  struct SpWatch {
    int id;
    std::uint16_t lo, hi;
    SpWatchMode mode;
    std::string label;
    bool armed = true;
  };
  struct RangeWatch {
    int id;
    std::uint32_t lo, hi;
    bool on_write;
    std::string label;
  };

  void emit(const avr::Cpu& cpu, int id, const std::string& label,
            std::uint32_t value);

  std::vector<SpWatch> sp_watches_;
  std::vector<RangeWatch> range_watches_;
  std::vector<WatchHit> hits_;
  ExecutionTrace* sink_ = nullptr;
  int next_id_ = 1;
  std::uint16_t sp_min_ = 0xFFFF;
  std::uint16_t sp_max_ = 0;
};

}  // namespace mavr::trace
