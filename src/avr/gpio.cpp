#include "avr/gpio.hpp"

namespace mavr::avr {

OutputPort::OutputPort(IoBus& bus, std::uint16_t addr, bool record_history)
    : bus_(bus), addr_(addr), record_history_(record_history) {
  // Readback is latched: the write handler keeps the last value in CPU RAM
  // so firmware loads of the port skip dispatch entirely.
  bus.make_latched(addr);
  bus.on_write(
      addr,
      [](void* self, std::uint8_t v) {
        static_cast<OutputPort*>(self)->write(v);
      },
      this);
}

void OutputPort::write(std::uint8_t v) {
  state_.value = v;
  bus_.poke(addr_, v);
  state_.last_write_cycle = bus_.now();
  ++state_.write_count;
  if (record_history_) {
    state_.history.push_back(Write{.cycle = bus_.now(), .value = v});
  }
}

InputPort::InputPort(IoBus& bus, std::uint16_t addr)
    : bus_(bus), addr_(addr) {
  bus.make_latched(addr);
  bus.poke(addr, 0);
}

}  // namespace mavr::avr
