// Regenerates the paper's effectiveness evaluation (§VII-A): gadget census
// on the vulnerable test application, the stealthy attack succeeding
// against the stock binary, and the same attack failing against the
// MAVR-randomized binary with the master detecting and reflashing.
#include <cstdio>

#include "attack/attacks.hpp"
#include "bench_util.hpp"
#include "campaign/scenarios.hpp"
#include "defense/preprocess.hpp"
#include "sim/board.hpp"
#include "sim/ground.hpp"
#include "toolchain/intelhex.hpp"

int main() {
  using namespace mavr;
  bench::heading("Effectiveness (paper §VII-A)");

  // The paper's test application: ArduPlane with the injected MAVLink
  // length-check vulnerability.
  const firmware::Firmware& fw = bench::built(firmware::arduplane(true));
  const attack::AttackPlan plan = attack::analyze(fw.image);

  std::printf("test application: %s (%zu functions, %u bytes)\n",
              fw.profile.name.c_str(), fw.image.function_count(),
              fw.image.size_bytes());
  std::printf("gadgets found: %u  (paper: 953)\n", plan.census.total());
  std::printf("  ret-terminated sequences: %u\n", plan.census.ret_gadgets);
  std::printf("  stk_move gadgets:         %u\n",
              plan.census.stk_move_gadgets);
  std::printf("  write_mem gadgets:        %u\n",
              plan.census.write_mem_gadgets);

  // --- Stealthy attack vs. the stock binary --------------------------------
  {
    sim::Board board;
    board.flash_image(fw.image.bytes);
    board.run_cycles(400'000);
    sim::GroundStation gcs(board);
    const attack::Write3 write{plan.gyro_cal_addr, {0xD1, 0x07, 0x00}};
    gcs.send_raw_param_set(plan.builder().v2_payload({write}));
    board.run_cycles(6'000'000);
    const bool wrote =
        board.cpu().data().raw(plan.gyro_cal_addr) == 0xD1 &&
        board.cpu().data().raw(plan.gyro_cal_addr + 1) == 0x07;
    const bool alive = board.cpu().state() == avr::CpuState::Running;
    std::printf("\nstock binary:      stealthy ROP attack %s "
                "(sensor write %s, victim %s)\n",
                wrote && alive ? "SUCCEEDS" : "fails",
                wrote ? "landed" : "missed",
                alive ? "keeps flying" : "crashed");
  }

  // --- Same payload vs. MAVR-randomized binaries, at population scale --------
  {
    // The attacker brute-forces: every trial is an independent board behind
    // a freshly drawn permutation, attacked with a gadget guess derived
    // from the *stale* stock binary (§V-D). Each guess jumps into the wrong
    // code; the garbage execution wedges the board and the master's
    // feed-line watchdog catches it, triggering re-randomization. The
    // campaign engine runs the fleet in parallel with bit-identical
    // aggregation at any jobs count.
    campaign::SimFixture fixture;
    fixture.fw = fw;
    fixture.plan = plan;
    fixture.container_hex = defense::preprocess_to_hex(fw.image);
    fixture.container =
        toolchain::intel_hex_decode(fixture.container_hex).data;
    attack::GadgetFinder finder(fw.image);
    for (const attack::StkMoveGadget& g : finder.stk_moves()) {
      if (g.pops.size() <= 3) fixture.usable_stk.push_back(g);
    }

    campaign::CampaignConfig config;
    config.scenario = campaign::Scenario::kV2;
    config.trials = 8;
    config.jobs = 2;
    config.seed = 99;
    config.watchdog_timeout_cycles = 400'000;
    const campaign::CampaignStats stats =
        campaign::run_campaign(config, fixture);

    const std::uint64_t survived =
        stats.trials - stats.successes - stats.detections;
    std::printf("randomized fleet:  stealthy ROP attack vs. %llu "
                "independently randomized boards:\n"
                "                   %llu succeeded, %llu detected by the "
                "feed-line watchdog and re-randomized,\n"
                "                   %llu shrugged the wild return off and "
                "kept flying (write still missed)\n",
                static_cast<unsigned long long>(stats.trials),
                static_cast<unsigned long long>(stats.successes),
                static_cast<unsigned long long>(stats.detections),
                static_cast<unsigned long long>(survived));
    std::printf("                   mean %.0f cycles from boot to verdict "
                "per board\n",
                stats.mean_cycles);
  }
  return 0;
}
