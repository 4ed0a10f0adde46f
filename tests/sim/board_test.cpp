// Board-level hardware model tests: bootloader protocol discipline, the
// readout-protection fuse, flash wear accounting, sensors and the flight
// dynamics model.
#include <gtest/gtest.h>

#include "firmware/generator.hpp"
#include "firmware/profile.hpp"
#include "sim/board.hpp"
#include "sim/flight.hpp"

namespace mavr {
namespace {

const firmware::Firmware& fw() {
  static firmware::Firmware fw = firmware::generate(
      firmware::testapp(false), toolchain::ToolchainOptions::mavr());
  return fw;
}

TEST(Board, BootloaderProtocolDiscipline) {
  sim::Board board;
  // Writes outside the bootloader are refused.
  EXPECT_THROW(board.bootloader_write_page(0, support::Bytes(4)),
               support::PreconditionError);
  EXPECT_THROW(board.bootloader_erase(), support::PreconditionError);
  EXPECT_THROW(board.bootloader_run_application(),
               support::PreconditionError);

  board.bootloader_enter();
  EXPECT_TRUE(board.in_bootloader());
  // Write before erase is refused (flash discipline).
  EXPECT_THROW(board.bootloader_write_page(0, support::Bytes(4)),
               support::PreconditionError);
  board.bootloader_erase();
  board.bootloader_write_page(0, support::Bytes(256, 0x00));
  // Oversized page is refused.
  EXPECT_THROW(board.bootloader_write_page(256, support::Bytes(257)),
               support::PreconditionError);
  board.bootloader_run_application();
  EXPECT_FALSE(board.in_bootloader());
}

TEST(Board, BootloaderPageWriteValidatedUpFront) {
  sim::Board board;
  board.bootloader_enter();
  board.bootloader_erase();
  // Misaligned page address.
  EXPECT_THROW(board.bootloader_write_page(100, support::Bytes(256)),
               support::PreconditionError);
  // Past the end of flash.
  const std::uint32_t flash_bytes = board.cpu().spec().flash_bytes;
  EXPECT_THROW(board.bootloader_write_page(flash_bytes, support::Bytes(16)),
               support::PreconditionError);
  EXPECT_THROW(
      board.bootloader_write_page(flash_bytes - 256, support::Bytes(257)),
      support::PreconditionError);
  // The last valid page is accepted.
  board.bootloader_write_page(flash_bytes - 256, support::Bytes(256, 0xAB));
  EXPECT_EQ(board.bootloader_read_page(flash_bytes - 256, 1)[0], 0xAB);
  board.bootloader_run_application();
}

TEST(Board, BootloaderReadbackDiscipline) {
  sim::Board board;
  // Readback outside the bootloader is refused.
  EXPECT_THROW(board.bootloader_read_page(0, 4), support::PreconditionError);
  board.bootloader_enter();
  board.bootloader_erase();
  board.bootloader_write_page(0, support::Bytes(256, 0x5A));
  EXPECT_EQ(board.bootloader_read_page(0, 256), support::Bytes(256, 0x5A));
  EXPECT_THROW(
      board.bootloader_read_page(board.cpu().spec().flash_bytes - 2, 4),
      support::PreconditionError);
  // Once the fuse is re-armed, readback is blocked again — and a chip
  // erase (which clears the lock bits, as on the real part) re-enables it.
  board.set_readout_protection();
  EXPECT_THROW(board.bootloader_read_page(0, 4), support::PreconditionError);
  board.bootloader_erase();
  EXPECT_EQ(board.bootloader_read_page(0, 1)[0], 0xFF);
  board.bootloader_run_application();
}

TEST(Board, BootloaderReadbackRangeCannotWrap) {
  sim::Board board;
  board.bootloader_enter();
  board.bootloader_erase();
  support::Bytes page(256);
  for (std::size_t i = 0; i < page.size(); ++i) {
    page[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  board.bootloader_write_page(0, page);
  // 0xFFFFFF00 + 0x200 wraps to 0x100 in 32 bits; the range itself is far
  // past the end of flash.
  EXPECT_THROW(board.bootloader_read_page(0xFFFFFF00u, 0x200),
               support::PreconditionError);
  EXPECT_THROW(board.bootloader_read_page(1, 0xFFFFFFFFu),
               support::PreconditionError);
  const std::uint32_t flash_bytes = board.cpu().spec().flash_bytes;
  EXPECT_THROW(board.bootloader_read_page(flash_bytes, 1),
               support::PreconditionError);
  EXPECT_TRUE(board.bootloader_read_page(flash_bytes, 0).empty());
  EXPECT_EQ(board.bootloader_read_page(0, flash_bytes),
            board.cpu().flash().dump());
  // Odd start and odd length: the one-pass copy matches the byte view.
  const support::Bytes got = board.bootloader_read_page(3, 201);
  ASSERT_EQ(got.size(), 201u);
  for (std::uint32_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], board.cpu().flash().byte(3 + i)) << "byte " << 3 + i;
  }
  EXPECT_EQ(board.bootloader_read_page(0, 256), page);
  board.bootloader_run_application();
}

TEST(Board, CoreHeldWhileInBootloader) {
  sim::Board board;
  board.flash_image(fw().image.bytes);
  board.bootloader_enter();
  const std::uint64_t retired = board.cpu().instructions_retired();
  board.run_cycles(100'000);
  EXPECT_EQ(board.cpu().instructions_retired(), retired);
  board.bootloader_run_application();
  board.run_cycles(100'000);
  EXPECT_GT(board.cpu().instructions_retired(), retired);
}

TEST(Board, ReadoutFuseBlocksDumpAndDirectFlash) {
  sim::Board board;
  board.flash_image(fw().image.bytes);
  EXPECT_EQ(board.read_flash().size(), 256u * 1024);
  board.set_readout_protection();
  EXPECT_THROW(board.read_flash(), support::PreconditionError);
  // Host flashing path also locked; only the bootloader remains.
  EXPECT_THROW(board.flash_image(fw().image.bytes),
               support::PreconditionError);
  board.bootloader_enter();
  board.bootloader_erase();
  board.bootloader_write_page(0, support::Bytes(256, 0x12));
  board.bootloader_run_application();
}

TEST(Board, FlashWearCounted) {
  sim::Board board;
  EXPECT_EQ(board.flash_write_cycles(), 0u);
  board.flash_image(fw().image.bytes);
  EXPECT_EQ(board.flash_write_cycles(), 1u);
  board.bootloader_enter();
  board.bootloader_erase();
  board.bootloader_run_application();
  EXPECT_EQ(board.flash_write_cycles(), 2u);
}

TEST(Board, SensorsReachTheFirmware) {
  sim::Board board;
  board.flash_image(fw().image.bytes);
  board.set_gyro(0, -12345);
  board.run_cycles(1'000'000);
  const toolchain::DataSymbol* gyro = fw().image.find_data("g_gyro");
  const std::int16_t seen = static_cast<std::int16_t>(
      board.cpu().data().raw(gyro->ram_addr) |
      (board.cpu().data().raw(gyro->ram_addr + 1) << 8));
  EXPECT_EQ(seen, -12345);
}

TEST(Board, TraceHookSeesEveryInstruction) {
  sim::Board board;
  board.flash_image(fw().image.bytes);
  std::uint64_t hook_calls = 0;
  board.set_trace_hook([&](const avr::Cpu&) { ++hook_calls; });
  board.run_cycles(10'000);
  EXPECT_EQ(hook_calls, board.cpu().instructions_retired());
  board.set_trace_hook(nullptr);
  board.run_cycles(10'000);
  EXPECT_GT(board.cpu().instructions_retired(), hook_calls);
}

TEST(Flight, ServoAuthorityDampsRollRate) {
  sim::Board board;
  board.flash_image(fw().image.bytes);
  sim::FlightModel flight(board);
  // Fly 5 simulated seconds with the controller active.
  for (int i = 0; i < 500; ++i) {
    flight.step(0.01);
    board.run_cycles(160'000);
  }
  ASSERT_EQ(board.cpu().state(), avr::CpuState::Running);
  EXPECT_FALSE(flight.state().departed);
  EXPECT_LT(std::abs(flight.state().roll_rate_dps), 20.0);
}

TEST(Flight, UncontrolledAirframeDeparts) {
  sim::Board board;  // no firmware: servos frozen at 0 (full deflection)
  sim::FlightModel flight(board);
  for (int i = 0; i < 2000 && !flight.state().departed; ++i) {
    flight.step(0.01);
  }
  EXPECT_TRUE(flight.state().departed);
}

TEST(Flight, GyroCountsSaturate) {
  sim::Board board;
  sim::FlightModel flight(board);
  for (int i = 0; i < 5000; ++i) flight.step(0.01);
  EXPECT_LE(std::abs(flight.gyro_counts()), 32000);
}

}  // namespace
}  // namespace mavr
