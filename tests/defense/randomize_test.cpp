// MAVR randomizer/patcher correctness (paper §V-B, §VI-B3).
//
// The strongest property: a randomized firmware must be *observationally
// identical* to the stock build — bit-identical servo traces, telemetry
// and globals — while having a completely different code layout.
#include <gtest/gtest.h>

#include "attack/attacks.hpp"
#include "defense/patcher.hpp"
#include "defense/preprocess.hpp"
#include "toolchain/intelhex.hpp"
#include "firmware/generator.hpp"
#include "firmware/profile.hpp"
#include "mavlink/mavlink.hpp"
#include "sim/board.hpp"
#include "sim/ground.hpp"
#include "support/crc.hpp"

namespace mavr {
namespace {

using defense::randomize_image;
using defense::RandomizeResult;
using toolchain::SymbolBlob;

const firmware::Firmware& testfw() {
  static firmware::Firmware fw = firmware::generate(
      firmware::testapp(/*vulnerable=*/true),
      toolchain::ToolchainOptions::mavr());
  return fw;
}

/// Observable behaviour of one run: servo write traces, telemetry bytes,
/// feed count and the globals region.
struct Observation {
  std::vector<avr::OutputPort::Write> servo[4];
  support::Bytes telemetry;
  std::uint64_t feeds = 0;
  support::Bytes globals;
  avr::CpuState state = avr::CpuState::Running;
};

Observation observe(std::span<const std::uint8_t> image,
                    std::uint64_t cycles) {
  sim::Board board;
  board.flash_image(image);
  board.set_gyro(0, 37);
  board.set_gyro(1, -5);
  board.set_gyro(2, 400);

  // Exercise the MAVLink path too: heartbeat + an in-bounds PARAM_SET.
  sim::GroundStation gcs(board);
  gcs.send_heartbeat();
  mavlink::ParamSet set;
  set.param_value = 2.5f;
  gcs.send_param_set(set);

  board.run_cycles(cycles);

  Observation obs;
  for (int i = 0; i < 4; ++i) obs.servo[i] = board.servo(i).history();
  obs.telemetry = board.telemetry().host_take_tx();
  obs.feeds = board.feed_line().write_count();
  obs.globals = board.cpu().data().snapshot(
      testfw().image.data_ram_base, testfw().image.data_bytes);
  obs.state = board.cpu().state();
  return obs;
}

class SemanticPreservation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SemanticPreservation, RandomizedFirmwareBehavesIdentically) {
  const toolchain::Image& image = testfw().image;
  const SymbolBlob blob = SymbolBlob::from_image(image);
  support::Rng rng(GetParam());
  const RandomizeResult result = randomize_image(image.bytes, blob, rng);

  ASSERT_EQ(result.image.size(), image.bytes.size());
  EXPECT_GT(result.moved_functions, blob.function_addrs.size() / 2);

  const Observation stock = observe(image.bytes, 3'000'000);
  const Observation randomized = observe(result.image, 3'000'000);

  EXPECT_EQ(stock.state, avr::CpuState::Running);
  EXPECT_EQ(randomized.state, avr::CpuState::Running);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(stock.servo[i], randomized.servo[i]) << "servo " << i;
  }
  EXPECT_EQ(stock.telemetry, randomized.telemetry);
  EXPECT_EQ(stock.feeds, randomized.feeds);
  // Globals must match except the dispatch/task tables: those hold code
  // pointers whose values legitimately change with the layout.
  support::Bytes g1 = stock.globals, g2 = randomized.globals;
  for (const toolchain::PointerSlot& slot : image.pointer_slots) {
    const std::size_t ram_off = slot.image_offset - image.data_init_offset;
    for (std::size_t b = 0; b < slot.width; ++b) {
      g1[ram_off + b] = 0;
      g2[ram_off + b] = 0;
    }
  }
  EXPECT_EQ(g1, g2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SemanticPreservation,
                         ::testing::Values(1, 2, 3, 17, 99, 12345, 0xDEAD,
                                           0xC0FFEE));

TEST(Randomizer, LayoutActuallyChanges) {
  const toolchain::Image& image = testfw().image;
  const SymbolBlob blob = SymbolBlob::from_image(image);
  support::Rng rng(7);
  const RandomizeResult result = randomize_image(image.bytes, blob, rng);
  EXPECT_NE(result.image, image.bytes);
  // The data region must be untouched except for patched pointer slots.
  std::size_t data_diffs = 0;
  for (std::size_t i = image.text_end; i < image.bytes.size(); ++i) {
    if (image.bytes[i] != result.image[i]) ++data_diffs;
  }
  EXPECT_LE(data_diffs, blob.pointer_slots.size() * 3);
  EXPECT_EQ(result.patched_pointers, blob.pointer_slots.size());
  EXPECT_GT(result.mid_function_targets, 0u);  // cross-jumps + mid entries
}

TEST(Randomizer, IdentityPermutationIsByteIdentical) {
  const toolchain::Image& image = testfw().image;
  const SymbolBlob blob = SymbolBlob::from_image(image);
  std::vector<std::size_t> identity(defense::movable_count(blob));
  for (std::size_t i = 0; i < identity.size(); ++i) identity[i] = i;
  const RandomizeResult result =
      randomize_image(image.bytes, blob, identity);
  EXPECT_EQ(result.image, image.bytes);
}

TEST(Randomizer, RejectsABlockEndingInsideA32BitInstruction) {
  // The last word of movable block 0 becomes a CALL's first word. Patched
  // as a CALL with a zero second word, it would write its retargeted
  // second word over the first word of the next block.
  const toolchain::Image& image = testfw().image;
  const SymbolBlob blob = SymbolBlob::from_image(image);
  std::size_t first = 0;
  while (blob.function_addrs[first] < blob.first_movable) ++first;
  const std::uint32_t last_word =
      blob.function_addrs[first] + blob.function_sizes[first] - 2;
  std::vector<std::size_t> identity(defense::movable_count(blob));
  for (std::size_t i = 0; i < identity.size(); ++i) identity[i] = i;

  support::Bytes bytes = image.bytes;
  support::store_u16_le(bytes, last_word, 0x0000);  // control: a nop
  EXPECT_NO_THROW(randomize_image(bytes, blob, identity));
  support::store_u16_le(bytes, last_word, 0x940E);
  EXPECT_THROW(randomize_image(bytes, blob, identity), support::DataError);
}

TEST(Randomizer, DistinctSeedsGiveDistinctLayouts) {
  const toolchain::Image& image = testfw().image;
  const SymbolBlob blob = SymbolBlob::from_image(image);
  support::Rng rng_a(100), rng_b(101);
  const auto a = randomize_image(image.bytes, blob, rng_a);
  const auto b = randomize_image(image.bytes, blob, rng_b);
  EXPECT_NE(a.image, b.image);
}

TEST(Randomizer, RefusesCallPrologueBuilds) {
  const firmware::Firmware fw = firmware::generate(
      firmware::testapp(true), toolchain::ToolchainOptions::stock());
  ASSERT_FALSE(fw.image.ldi_code_pointers.empty());
  const SymbolBlob blob = SymbolBlob::from_image(fw.image);
  support::Rng rng(1);
  EXPECT_THROW(randomize_image(fw.image.bytes, blob, rng),
               support::PreconditionError);
}

TEST(Randomizer, RefusesRelaxedBuilds) {
  toolchain::ToolchainOptions opts;  // relax on, prologues off, no align
  opts.relax = true;
  const firmware::Firmware fw =
      firmware::generate(firmware::testapp(true), opts);
  const SymbolBlob blob = SymbolBlob::from_image(fw.image);
  support::Rng rng(1);
  EXPECT_THROW(randomize_image(fw.image.bytes, blob, rng),
               support::PreconditionError);
}

TEST(Randomizer, ArduplaneScaleSemanticPreservation) {
  // The full 917-function, 221 KB evaluation binary: one permutation,
  // full observable-equality check.
  const firmware::Firmware fw = firmware::generate(
      firmware::arduplane(/*vulnerable=*/true),
      toolchain::ToolchainOptions::mavr());
  const SymbolBlob blob = SymbolBlob::from_image(fw.image);
  support::Rng rng(0xA17);
  const RandomizeResult result = randomize_image(fw.image.bytes, blob, rng);
  EXPECT_EQ(result.moved_functions, blob.function_addrs.size());
  EXPECT_GT(result.patched_abs_jumps, 200u);

  auto observe = [&](std::span<const std::uint8_t> image) {
    sim::Board board;
    board.flash_image(image);
    board.set_gyro(0, -777);
    sim::GroundStation gcs(board);
    gcs.send_heartbeat();
    board.run_cycles(2'500'000);
    return std::make_tuple(board.servo(0).history(),
                           board.feed_line().write_count(),
                           board.telemetry().host_take_tx(),
                           board.cpu().state());
  };
  const auto stock = observe(fw.image.bytes);
  const auto randomized = observe(result.image);
  EXPECT_EQ(std::get<3>(stock), avr::CpuState::Running);
  EXPECT_EQ(stock, randomized);
}

TEST(Preprocess, ContainerRoundTrip) {
  const toolchain::Image& image = testfw().image;
  const std::string hex = defense::preprocess_to_hex(image);
  const toolchain::HexImage decoded = toolchain::intel_hex_decode(hex);
  const defense::Container container =
      defense::parse_container(decoded.data);
  EXPECT_EQ(container.image, image.bytes);
  EXPECT_EQ(container.blob.function_addrs.size(), image.function_count());
  EXPECT_EQ(container.blob.text_end, image.text_end);
  EXPECT_EQ(container.blob.pointer_slots.size(), image.pointer_slots.size());
}

TEST(Preprocess, CorruptContainerRejected) {
  const toolchain::Image& image = testfw().image;
  support::Bytes bytes = defense::build_container(image);
  bytes[10] ^= 0xFF;  // corrupt inside the blob
  EXPECT_THROW(defense::parse_container(bytes), support::DataError);
}

TEST(Preprocess, RejectsCrcValidContainersThatReachPastTheImage) {
  // Each case changes one blob field and recomputes both CRCs, so only the
  // layout checks stand between the container and the randomizer.
  const toolchain::Image& image = testfw().image;
  const auto container_with = [&](const SymbolBlob& blob) {
    const support::Bytes blob_bytes = blob.serialize();
    support::Crc32 crc;
    crc.update(blob_bytes);
    crc.update(image.bytes);
    support::Bytes out;
    support::ByteWriter w(out);
    w.u32_le(0x4D565243);  // "MVRC"
    w.u32_le(static_cast<std::uint32_t>(blob_bytes.size()));
    w.u32_le(static_cast<std::uint32_t>(image.bytes.size()));
    w.u32_le(crc.value());
    w.bytes(blob_bytes);
    w.bytes(image.bytes);
    return out;
  };
  const SymbolBlob good = SymbolBlob::from_image(image);
  EXPECT_EQ(container_with(good), defense::build_container(image));
  EXPECT_NO_THROW(defense::parse_container(container_with(good)));

  SymbolBlob layout = good;  // padded layout past the image end
  layout.layout_end = good.text_end + 4096;
  SymbolBlob movable = good;  // movable region starting past the text
  movable.first_movable = good.text_end + 4096;
  SymbolBlob size = good;  // last function running past the text
  size.function_sizes.back() = 0x100000;
  SymbolBlob wrap = good;  // ... or wrapping the address space
  wrap.function_sizes.back() = 0xFFFFFFFFu;
  SymbolBlob overlap = good;  // two functions sharing bytes
  overlap.function_sizes[1] += 2;
  for (const SymbolBlob* bad : {&layout, &movable, &size, &wrap, &overlap}) {
    EXPECT_THROW(defense::parse_container(container_with(*bad)),
                 support::DataError);
  }
}

}  // namespace
}  // namespace mavr
