#include "sim/board.hpp"

#include "firmware/generator.hpp"
#include "support/error.hpp"

namespace mavr::sim {

using firmware::BoardIo;

Board::Board(std::uint32_t baud) : cpu_(avr::atmega2560()) {
  avr::IoBus& bus = cpu_.io();
  uart_ = std::make_unique<avr::Uart>(
      bus, avr::usart0_config(cpu_.spec().clock_hz, baud));
  for (int i = 0; i < 3; ++i) {
    gyro_[i] = std::make_unique<Sensor16>(
        bus, static_cast<std::uint16_t>(BoardIo::kGyroX + 2 * i));
    acc_[i] = std::make_unique<Sensor16>(
        bus, static_cast<std::uint16_t>(BoardIo::kAccX + 2 * i));
  }
  for (int i = 0; i < 4; ++i) {
    servo_[i] = std::make_unique<avr::OutputPort>(
        bus, static_cast<std::uint16_t>(BoardIo::kServo0 + i),
        /*record_history=*/true);
  }
  feed_ = std::make_unique<avr::OutputPort>(bus, BoardIo::kFeed,
                                            /*record_history=*/false);
  led_ = std::make_unique<avr::OutputPort>(bus, BoardIo::kLed,
                                           /*record_history=*/false);
  timer_ = std::make_unique<avr::Timer>(bus, firmware::kTimerPeriodCycles);
  cpu_.set_irq_line(
      firmware::kTimerVector,
      [](void* t) { return static_cast<avr::Timer*>(t)->take_irq(); },
      timer_.get());
}

void Board::flash_image(std::span<const std::uint8_t> image) {
  MAVR_REQUIRE(!readout_protected_,
               "direct flashing refused: readout protection set "
               "(use the bootloader)");
  cpu_.flash().erase();
  cpu_.flash().program(image);
  ++flash_write_cycles_;
  reset();
}

support::Bytes Board::read_flash() const {
  MAVR_REQUIRE(!readout_protected_,
               "flash readout blocked by protection fuse");
  return cpu_.flash().dump();
}

void Board::bootloader_enter() {
  in_bootloader_ = true;
  erased_this_session_ = false;
}

void Board::bootloader_erase() {
  MAVR_REQUIRE(in_bootloader_, "not in bootloader");
  cpu_.flash().erase();
  // Chip erase clears the lock bits on the real part; modelling that here
  // is what makes readback verification of freshly written pages possible
  // before the master re-arms the fuse.
  readout_protected_ = false;
  erased_this_session_ = true;
  ++flash_write_cycles_;
}

void Board::bootloader_write_page(std::uint32_t byte_addr,
                                  std::span<const std::uint8_t> page) {
  const std::uint32_t page_bytes = cpu_.spec().flash_page_bytes;
  MAVR_REQUIRE(in_bootloader_, "not in bootloader");
  MAVR_REQUIRE(erased_this_session_, "write before chip erase");
  MAVR_REQUIRE(page.size() <= page_bytes, "page larger than flash page");
  MAVR_REQUIRE(byte_addr % page_bytes == 0,
               "page address not page aligned");
  MAVR_REQUIRE(byte_addr + page.size() <= cpu_.spec().flash_bytes,
               "page write beyond end of flash");
  if (faults_ && !faults_->program_succeeds(flash_write_cycles_)) {
    return;  // program pulse failed; the page retains its erased contents
  }
  cpu_.flash().program_page(byte_addr, page);
}

support::Bytes Board::bootloader_read_page(std::uint32_t byte_addr,
                                           std::uint32_t len) const {
  MAVR_REQUIRE(in_bootloader_, "not in bootloader");
  MAVR_REQUIRE(!readout_protected_,
               "bootloader readback blocked by protection fuse");
  const std::uint32_t flash_bytes = cpu_.spec().flash_bytes;
  MAVR_REQUIRE(len <= flash_bytes && byte_addr <= flash_bytes - len,
               "readback beyond end of flash");
  return cpu_.flash().read_bytes(byte_addr, len);
}

void Board::bootloader_run_application() {
  MAVR_REQUIRE(in_bootloader_, "not in bootloader");
  in_bootloader_ = false;
  reset();
}

void Board::reset() { cpu_.reset(); }

void Board::power_on() {
  faults_ = nullptr;
  readout_protected_ = false;
  in_bootloader_ = false;
  erased_this_session_ = false;
  flash_write_cycles_ = 0;
  uart_->power_on();
  for (auto& servo : servo_) servo->power_on();
  feed_->power_on();
  led_->power_on();
  timer_->power_on();
  // Last: the bus re-reads the timer's deadline and the latched inputs
  // (the sensors) go back to zero with it.
  cpu_.power_on();
}

void Board::run_cycles(std::uint64_t cycles) {
  if (in_bootloader_) return;  // core held in the bootloader stub
  cpu_.run(cycles);
}

}  // namespace mavr::sim
