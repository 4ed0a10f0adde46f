// Firmware-generator properties: determinism, profile statistics (Table I
// and Table III targets), the vulnerability switch, and the presence of
// the structural idioms the paper's attack and defense depend on.
#include <gtest/gtest.h>

#include "attack/gadgets.hpp"
#include "firmware/generator.hpp"
#include "firmware/profile.hpp"
#include "mavlink/mavlink.hpp"
#include "sim/board.hpp"
#include "sim/ground.hpp"
#include "toolchain/function_index.hpp"

namespace mavr {
namespace {

using firmware::AppProfile;
using firmware::Firmware;
using toolchain::ToolchainOptions;

TEST(Generator, DeterministicForSameProfile) {
  const Firmware a =
      firmware::generate(firmware::testapp(true), ToolchainOptions::mavr());
  const Firmware b =
      firmware::generate(firmware::testapp(true), ToolchainOptions::mavr());
  EXPECT_EQ(a.image.bytes, b.image.bytes);
  EXPECT_EQ(a.image.function_count(), b.image.function_count());
}

TEST(Generator, SeedChangesTheBinary) {
  AppProfile p = firmware::testapp(true);
  const Firmware a = firmware::generate(p, ToolchainOptions::mavr());
  p.seed ^= 1;
  const Firmware b = firmware::generate(p, ToolchainOptions::mavr());
  EXPECT_NE(a.image.bytes, b.image.bytes);
}

class PaperProfiles : public ::testing::TestWithParam<int> {
 protected:
  static AppProfile profile(int index) {
    switch (index) {
      case 0: return firmware::arduplane();
      case 1: return firmware::arducopter();
      default: return firmware::ardurover();
    }
  }
};

TEST_P(PaperProfiles, HitsTable1FunctionCount) {
  const AppProfile p = profile(GetParam());
  const Firmware fw = firmware::generate(p, ToolchainOptions::mavr());
  EXPECT_EQ(fw.image.function_count(), p.function_count);
}

TEST_P(PaperProfiles, HitsTable3MavrSize) {
  const AppProfile p = profile(GetParam());
  const Firmware fw = firmware::generate(p, ToolchainOptions::mavr());
  EXPECT_EQ(fw.image.size_bytes(), p.target_image_bytes);
}

TEST_P(PaperProfiles, StockBuildSlightlyLarger) {
  const AppProfile p = profile(GetParam());
  const Firmware mavr_fw = firmware::generate(p, ToolchainOptions::mavr());
  const Firmware stock_fw = firmware::generate(p, ToolchainOptions::stock());
  const std::int64_t delta =
      static_cast<std::int64_t>(stock_fw.image.size_bytes()) -
      static_cast<std::int64_t>(mavr_fw.image.size_bytes());
  // Paper deltas: +314 / +240 / +314 bytes. Require the same sign and
  // magnitude band.
  EXPECT_GT(delta, 100);
  EXPECT_LT(delta, 600);
}

TEST_P(PaperProfiles, BootsAndFeeds) {
  const Firmware fw =
      firmware::generate(profile(GetParam()), ToolchainOptions::mavr());
  sim::Board board;
  board.flash_image(fw.image.bytes);
  board.run_cycles(2'000'000);
  EXPECT_EQ(board.cpu().state(), avr::CpuState::Running)
      << board.cpu().fault().reason;
  EXPECT_GT(board.feed_line().write_count(), 10u);
}

TEST_P(PaperProfiles, ProvidesThePaperGadgets) {
  const Firmware fw =
      firmware::generate(profile(GetParam()), ToolchainOptions::mavr());
  attack::GadgetFinder finder(fw.image);
  // Same order of magnitude as the paper's 953.
  EXPECT_GT(finder.census().total(), 500u);
  EXPECT_LT(finder.census().total(), 2500u);
  EXPECT_GT(finder.census().stk_move_gadgets, 10u);
  EXPECT_GT(finder.census().write_mem_gadgets, 4u);
}

INSTANTIATE_TEST_SUITE_P(All, PaperProfiles, ::testing::Values(0, 1, 2));

TEST(Generator, SafeBuildClampsTheOverflow) {
  // With the length check present (the paper's un-tampered firmware), an
  // oversized PARAM_SET must NOT smash the stack.
  const Firmware fw =
      firmware::generate(firmware::testapp(/*vulnerable=*/false),
                         ToolchainOptions::mavr());
  sim::Board board;
  board.flash_image(fw.image.bytes);
  board.run_cycles(300'000);
  sim::GroundStation gcs(board);
  support::Bytes payload(200, 0xA5);  // would overflow the 96-byte buffer
  gcs.send_raw_param_set(payload);
  board.run_cycles(5'000'000);
  EXPECT_EQ(board.cpu().state(), avr::CpuState::Running);
  const std::uint64_t feeds = board.feed_line().write_count();
  board.run_cycles(500'000);
  EXPECT_GT(board.feed_line().write_count(), feeds);  // still flying
}

TEST(Generator, VulnerableBuildDiffersOnlySlightly) {
  const Firmware safe = firmware::generate(firmware::testapp(false),
                                           ToolchainOptions::mavr());
  const Firmware vuln = firmware::generate(firmware::testapp(true),
                                           ToolchainOptions::mavr());
  // Same function population; the handler shrinks by the length check.
  EXPECT_EQ(safe.image.function_count(), vuln.image.function_count());
  const toolchain::Symbol* hs = safe.image.find("h_param_set");
  const toolchain::Symbol* hv = vuln.image.find("h_param_set");
  ASSERT_NE(hs, nullptr);
  ASSERT_NE(hv, nullptr);
  EXPECT_GT(hs->size, hv->size);
}

TEST(Generator, TaskTableContainsMidFunctionEntries) {
  const Firmware fw = firmware::generate(firmware::testapp(true),
                                         ToolchainOptions::mavr());
  // At least one task-table pointer must target a mid-function address —
  // the case that forces the patcher's binary search (paper §VI-B3).
  const auto blob = toolchain::SymbolBlob::from_image(fw.image);
  const toolchain::FunctionIndex index(blob.function_addrs,
                                       blob.function_sizes);
  bool mid_found = false;
  for (const toolchain::PointerSlot& slot : fw.image.pointer_slots) {
    const std::uint32_t lo =
        support::load_u16_le(fw.image.bytes, slot.image_offset);
    const std::uint32_t word =
        lo | (slot.width == 3
                  ? (static_cast<std::uint32_t>(
                         fw.image.bytes[slot.image_offset + 2])
                     << 16)
                  : 0);
    std::uint32_t offset = 0;
    ASSERT_GE(index.containing(word * 2, &offset), 0);
    if (offset != 0) mid_found = true;
  }
  EXPECT_TRUE(mid_found);
}

TEST(Generator, TelemetryCrcMatchesHostCrc) {
  // The firmware's hand-rolled assembly CRC must agree with the host
  // implementation: the ground station accepted packets in other tests,
  // but verify explicitly against a crafted state.
  const Firmware fw = firmware::generate(firmware::testapp(true),
                                         ToolchainOptions::mavr());
  sim::Board board;
  board.flash_image(fw.image.bytes);
  board.set_gyro(0, 0x1234);
  board.set_acc(2, -999);
  sim::GroundStation gcs(board);
  board.run_cycles(4'000'000);
  gcs.poll();
  ASSERT_TRUE(gcs.last_imu().has_value());
  EXPECT_EQ(gcs.last_imu()->xgyro, 0x1234);
  EXPECT_EQ(gcs.last_imu()->zacc, -999);
  EXPECT_EQ(gcs.garbage_bytes(), 0u);
}

TEST(Generator, ProfileTooSmallRejected) {
  AppProfile p = firmware::testapp(true);
  p.function_count = 20;
  EXPECT_THROW(firmware::generate(p, ToolchainOptions::mavr()),
               support::PreconditionError);
}

}  // namespace
}  // namespace mavr
