#include "trace/watchpoints.hpp"

#include "support/error.hpp"
#include "trace/events.hpp"

namespace mavr::trace {

int Watchpoints::watch_sp(std::uint16_t lo, std::uint16_t hi,
                          SpWatchMode mode, std::string label) {
  MAVR_REQUIRE(lo <= hi, "sp watch range is inverted");
  const int id = next_id_++;
  sp_watches_.push_back(SpWatch{
      .id = id, .lo = lo, .hi = hi, .mode = mode, .label = std::move(label)});
  return id;
}

int Watchpoints::watch_write(std::uint32_t lo, std::uint32_t hi,
                             std::string label) {
  MAVR_REQUIRE(lo <= hi, "write watch range is inverted");
  const int id = next_id_++;
  range_watches_.push_back(RangeWatch{
      .id = id, .lo = lo, .hi = hi, .on_write = true,
      .label = std::move(label)});
  return id;
}

int Watchpoints::watch_read(std::uint32_t lo, std::uint32_t hi,
                            std::string label) {
  MAVR_REQUIRE(lo <= hi, "read watch range is inverted");
  const int id = next_id_++;
  range_watches_.push_back(RangeWatch{
      .id = id, .lo = lo, .hi = hi, .on_write = false,
      .label = std::move(label)});
  return id;
}

std::uint64_t Watchpoints::hit_count(int watch_id) const {
  std::uint64_t n = 0;
  for (const WatchHit& h : hits_) {
    if (h.watch_id == watch_id) ++n;
  }
  return n;
}

void Watchpoints::emit(const avr::Cpu& cpu, int id, const std::string& label,
                       std::uint32_t value) {
  hits_.push_back(WatchHit{.watch_id = id,
                           .label = label,
                           .cycle = cpu.cycles(),
                           .pc_words = cpu.pc(),
                           .value = value});
  if (sink_ != nullptr) {
    sink_->record(Event{.kind = EventKind::WatchHit,
                        .op = 0,
                        .cycle = cpu.cycles(),
                        .pc_words = cpu.pc(),
                        .a = static_cast<std::uint32_t>(id),
                        .b = value});
  }
}

void Watchpoints::on_sp_change(const avr::Cpu& cpu, std::uint16_t /*old_sp*/,
                               std::uint16_t new_sp) {
  if (new_sp < sp_min_) sp_min_ = new_sp;
  if (new_sp > sp_max_) sp_max_ = new_sp;
  for (SpWatch& w : sp_watches_) {
    const bool inside = new_sp >= w.lo && new_sp <= w.hi;
    const bool violating = (w.mode == SpWatchMode::Inside) ? inside : !inside;
    if (violating) {
      if (w.armed) {
        w.armed = false;
        emit(cpu, w.id, w.label, new_sp);
      }
    } else {
      w.armed = true;
    }
  }
}

void Watchpoints::on_load(const avr::Cpu& cpu, std::uint32_t addr,
                          std::uint8_t /*value*/) {
  for (const RangeWatch& w : range_watches_) {
    if (!w.on_write && addr >= w.lo && addr <= w.hi) {
      emit(cpu, w.id, w.label, addr);
    }
  }
}

void Watchpoints::on_store(const avr::Cpu& cpu, std::uint32_t addr,
                           std::uint8_t /*value*/) {
  for (const RangeWatch& w : range_watches_) {
    if (w.on_write && addr >= w.lo && addr <= w.hi) {
      emit(cpu, w.id, w.label, addr);
    }
  }
}

}  // namespace mavr::trace
