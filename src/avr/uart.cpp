#include "avr/uart.hpp"

#include "support/error.hpp"

namespace mavr::avr {

UartConfig usart0_config(std::uint32_t clock_hz, std::uint32_t baud) {
  // ATmega2560: UCSR0A = 0xC0, UDR0 = 0xC6 (extended I/O, LDS/STS access).
  return UartConfig{.data_addr = 0xC6,
                    .status_addr = 0xC0,
                    .clock_hz = clock_hz,
                    .baud = baud};
}

Uart::Uart(IoBus& bus, const UartConfig& config) : bus_(bus) {
  MAVR_REQUIRE(config.baud != 0, "uart baud rate must be non-zero");
  MAVR_REQUIRE(config.clock_hz != 0, "uart clock must be non-zero");
  cycles_per_byte_ =
      static_cast<std::uint64_t>(config.clock_hz) * 10 / config.baud;
  MAVR_REQUIRE(cycles_per_byte_ != 0,
               "uart baud rate exceeds what the clock can pace");
  bus.on_read(
      config.status_addr,
      [](void* self) { return static_cast<Uart*>(self)->read_status(); },
      this);
  bus.on_read(
      config.data_addr,
      [](void* self) { return static_cast<Uart*>(self)->read_data(); },
      this);
  bus.on_write(
      config.data_addr,
      [](void* self, std::uint8_t b) {
        auto* uart = static_cast<Uart*>(self);
        uart->state_.tx.push_back(b);
        if (uart->tap_ != nullptr) uart->tap_->on_tx(uart->now(), b);
      },
      this);
}

void Uart::host_send(std::span<const std::uint8_t> bytes) {
  std::uint64_t& cursor = state_.rx_cursor;
  if (cursor < now()) cursor = now();
  for (std::uint8_t b : bytes) {
    cursor += cycles_per_byte_;
    state_.rx.push_back(Pending{.ready_at = cursor, .byte = b});
  }
}

void Uart::power_on() {
  restore(State{});
  tap_ = nullptr;
}

support::Bytes Uart::host_take_tx() {
  support::Bytes out;
  out.swap(state_.tx);
  return out;
}

std::uint8_t Uart::read_status() const {
  std::uint8_t status = kUartTxReady;  // transmit never blocks the firmware
  const std::deque<Pending>& rx = state_.rx;
  if (!rx.empty() && rx.front().ready_at <= now()) status |= kUartRxComplete;
  return status;
}

std::uint8_t Uart::read_data() {
  std::deque<Pending>& rx = state_.rx;
  if (rx.empty() || rx.front().ready_at > now()) {
    // Underrun: the real part's receive buffer just holds the last byte and
    // an idle line rests at mark, so report 0xFF — never a synthetic 0x00
    // that downstream parsers could mistake for payload.
    ++state_.rx_underruns;
    if (tap_ != nullptr) tap_->on_rx_underrun(now());
    return kUartIdleLine;
  }
  const std::uint8_t byte = rx.front().byte;
  rx.pop_front();
  if (tap_ != nullptr) tap_->on_rx(now(), byte);
  return byte;
}

}  // namespace mavr::avr
