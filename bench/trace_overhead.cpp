// Tracer overhead on the interpreter hot loop: the same firmware run
// untraced (the single null-pointer branch), under each concrete sink,
// under the intrusion-detection engine with each detector alone and all of
// them (DESIGN.md §10), and under the full Session. The untraced number
// must stay within a few percent of BM_CpuSimulation in micro_bench — that
// is the zero-cost-when-disabled contract of the observability layer. The
// spread between BM_Untraced and BM_Detectors is the on-board price of the
// detection layer the paper argues randomization makes unnecessary.
#include <benchmark/benchmark.h>

#include "detect/engine.hpp"
#include "firmware/generator.hpp"
#include "firmware/profile.hpp"
#include "sim/board.hpp"
#include "trace/session.hpp"

namespace {

using namespace mavr;

const firmware::Firmware& test_fw() {
  static firmware::Firmware fw = firmware::generate(
      firmware::testapp(true), toolchain::ToolchainOptions::mavr());
  return fw;
}

void run_slice(benchmark::State& state, sim::Board& board) {
  board.run_cycles(100'000);
  if (board.cpu().state() != avr::CpuState::Running) {
    state.SkipWithError("board died");
  }
}

void sim_rate(benchmark::State& state) {
  state.counters["sim_MHz"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 100'000,
      benchmark::Counter::kIsRate, benchmark::Counter::OneK::kIs1000);
}

void BM_Untraced(benchmark::State& state) {
  sim::Board board;
  board.flash_image(test_fw().image.bytes);
  board.run_cycles(200'000);  // boot
  for (auto _ : state) run_slice(state, board);
  sim_rate(state);
}
BENCHMARK(BM_Untraced)->Unit(benchmark::kMicrosecond);

void BM_NullTracer(benchmark::State& state) {
  // An attached tracer whose hooks are all the empty defaults: measures the
  // cost of the instrumented interpreter instantiation itself.
  sim::Board board;
  board.flash_image(test_fw().image.bytes);
  board.run_cycles(200'000);
  avr::Tracer null_tracer;
  board.cpu().set_tracer(&null_tracer);
  for (auto _ : state) run_slice(state, board);
  sim_rate(state);
}
BENCHMARK(BM_NullTracer)->Unit(benchmark::kMicrosecond);

void BM_RingTraceFlow(benchmark::State& state) {
  // Control-flow events only (default mask) into the bounded ring.
  sim::Board board;
  board.flash_image(test_fw().image.bytes);
  board.run_cycles(200'000);
  trace::ExecutionTrace trace;
  board.cpu().set_tracer(&trace);
  for (auto _ : state) run_slice(state, board);
  sim_rate(state);
}
BENCHMARK(BM_RingTraceFlow)->Unit(benchmark::kMicrosecond);

void BM_RingTraceAll(benchmark::State& state) {
  // Full firehose: every retire/load/store recorded.
  sim::Board board;
  board.flash_image(test_fw().image.bytes);
  board.run_cycles(200'000);
  trace::ExecutionTrace trace(std::size_t{1} << 16, trace::kAllEvents);
  board.cpu().set_tracer(&trace);
  for (auto _ : state) run_slice(state, board);
  sim_rate(state);
}
BENCHMARK(BM_RingTraceAll)->Unit(benchmark::kMicrosecond);

void BM_Profiler(benchmark::State& state) {
  sim::Board board;
  board.flash_image(test_fw().image.bytes);
  board.run_cycles(200'000);
  trace::Profiler profiler(test_fw().image);
  board.cpu().set_tracer(&profiler);
  for (auto _ : state) run_slice(state, board);
  sim_rate(state);
}
BENCHMARK(BM_Profiler)->Unit(benchmark::kMicrosecond);

void BM_Watchpoints(benchmark::State& state) {
  sim::Board board;
  board.flash_image(test_fw().image.bytes);
  board.run_cycles(200'000);
  trace::Watchpoints watch;
  watch.watch_sp(0x2100, 0x21FF, trace::SpWatchMode::Outside, "stack");
  board.cpu().set_tracer(&watch);
  for (auto _ : state) run_slice(state, board);
  sim_rate(state);
}
BENCHMARK(BM_Watchpoints)->Unit(benchmark::kMicrosecond);

// The engine armed before boot, so its shadow stack sees every call of
// the clean flight and any verdict is a false positive.
void bench_engine(benchmark::State& state, unsigned detectors) {
  sim::Board board;
  board.flash_image(test_fw().image.bytes);
  detect::Engine engine(detect::EngineConfig{.detectors = detectors});
  engine.arm(board.cpu());
  engine.rebuild(test_fw().image.bytes, test_fw().image.text_end);
  board.run_cycles(200'000);
  for (auto _ : state) run_slice(state, board);
  sim_rate(state);
  if (engine.tripped()) state.SkipWithError("false positive on clean flight");
}

void BM_EngineNoDetectors(benchmark::State& state) {
  // Every detector masked off: the cost of the instrumented interpreter
  // instantiation plus the mask checks.
  bench_engine(state, detect::kDetectNone);
}
BENCHMARK(BM_EngineNoDetectors)->Unit(benchmark::kMicrosecond);

void BM_Canary(benchmark::State& state) {
  bench_engine(state, detect::kDetectCanary);
}
BENCHMARK(BM_Canary)->Unit(benchmark::kMicrosecond);

void BM_ShadowStack(benchmark::State& state) {
  bench_engine(state, detect::kDetectShadowStack);
}
BENCHMARK(BM_ShadowStack)->Unit(benchmark::kMicrosecond);

void BM_SpBounds(benchmark::State& state) {
  bench_engine(state, detect::kDetectSpBounds);
}
BENCHMARK(BM_SpBounds)->Unit(benchmark::kMicrosecond);

void BM_ReturnCfi(benchmark::State& state) {
  bench_engine(state, detect::kDetectReturnCfi);
}
BENCHMARK(BM_ReturnCfi)->Unit(benchmark::kMicrosecond);

void BM_Detectors(benchmark::State& state) {
  bench_engine(state, detect::kDetectAll);
}
BENCHMARK(BM_Detectors)->Unit(benchmark::kMicrosecond);

void BM_FullSession(benchmark::State& state) {
  // Everything at once, plus the UART tap: the mavr-trace configuration.
  sim::Board board;
  board.flash_image(test_fw().image.bytes);
  board.run_cycles(200'000);
  trace::Session session(test_fw().image);
  session.watchpoints().watch_sp(0x2100, 0x21FF,
                                 trace::SpWatchMode::Outside, "stack");
  session.attach(board.cpu(), &board.telemetry());
  for (auto _ : state) run_slice(state, board);
  sim_rate(state);
}
BENCHMARK(BM_FullSession)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
