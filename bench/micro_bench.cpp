// google-benchmark microbenchmarks for the hot paths of the reproduction:
// the master's randomize+patch pass (determines how much CPU headroom the
// ATmega1284P model needs), the attacker's gadget scan, the MAVLink codec,
// the CRC and the raw simulator speed.
#include <benchmark/benchmark.h>

#include "attack/gadgets.hpp"
#include "defense/patcher.hpp"
#include "firmware/generator.hpp"
#include "firmware/profile.hpp"
#include "mavlink/mavlink.hpp"
#include "sim/board.hpp"
#include "support/crc.hpp"
#include "support/rng.hpp"
#include "toolchain/image.hpp"

namespace {

using namespace mavr;

const firmware::Firmware& arduplane_fw() {
  static firmware::Firmware fw = firmware::generate(
      firmware::arduplane(true), toolchain::ToolchainOptions::mavr());
  return fw;
}

const firmware::Firmware& test_fw() {
  static firmware::Firmware fw = firmware::generate(
      firmware::testapp(true), toolchain::ToolchainOptions::mavr());
  return fw;
}

void BM_RandomizeAndPatch(benchmark::State& state) {
  const toolchain::Image& image = arduplane_fw().image;
  const toolchain::SymbolBlob blob = toolchain::SymbolBlob::from_image(image);
  support::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        defense::randomize_image(image.bytes, blob, rng));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          image.size_bytes());
}
BENCHMARK(BM_RandomizeAndPatch)->Unit(benchmark::kMillisecond);

void BM_GadgetScan(benchmark::State& state) {
  const toolchain::Image& image = arduplane_fw().image;
  for (auto _ : state) {
    attack::GadgetFinder finder(image);
    benchmark::DoNotOptimize(finder.census());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          image.text_end);
}
BENCHMARK(BM_GadgetScan)->Unit(benchmark::kMillisecond);

void BM_FirmwareGeneration(benchmark::State& state) {
  const firmware::AppProfile profile = firmware::arduplane(true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        firmware::generate(profile, toolchain::ToolchainOptions::mavr()));
  }
}
BENCHMARK(BM_FirmwareGeneration)->Unit(benchmark::kMillisecond);

void BM_MavlinkEncode(benchmark::State& state) {
  mavlink::Attitude att;
  att.roll = 0.12f;
  std::uint8_t seq = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mavlink::encode(att.to_packet(1, seq++)));
  }
}
BENCHMARK(BM_MavlinkEncode);

void BM_MavlinkParse(benchmark::State& state) {
  mavlink::Attitude att;
  const support::Bytes bytes = mavlink::encode(att.to_packet(1, 9));
  mavlink::Parser parser;
  for (auto _ : state) {
    for (std::uint8_t b : bytes) benchmark::DoNotOptimize(parser.push(b));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_MavlinkParse);

void BM_Crc16(benchmark::State& state) {
  support::Bytes data(256);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 31);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(support::crc16_x25(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_Crc16);

// CRC-32 over one firmware container's worth of bytes: the reflash path
// hashes a ~8.5 KB container five times per boot (DESIGN.md §9).
void BM_Crc32(benchmark::State& state) {
  support::Bytes data(8704);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 31);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(support::crc32_ieee(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_Crc32);

void BM_CpuSimulation(benchmark::State& state) {
  sim::Board board;
  board.flash_image(test_fw().image.bytes);
  board.run_cycles(200'000);  // boot
  for (auto _ : state) {
    board.run_cycles(100'000);
    if (board.cpu().state() != avr::CpuState::Running) state.SkipWithError("board died");
  }
  state.counters["sim_MHz"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 100'000,
      benchmark::Counter::kIsRate, benchmark::Counter::OneK::kIs1000);
}
BENCHMARK(BM_CpuSimulation)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
