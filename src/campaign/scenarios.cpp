#include "campaign/scenarios.hpp"

#include "analysis/analyze.hpp"
#include "campaign/trial.hpp"
#include "defense/bruteforce.hpp"
#include "defense/preprocess.hpp"
#include "sim/ground.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"
#include "toolchain/intelhex.hpp"

namespace mavr::campaign {

namespace {

/// Unused high SRAM where V3 stages its big chain (same spot the
/// stealthy-attack tests use).
constexpr std::uint16_t kV3StagingAddr = 0x1B00;

TrialResult run_bruteforce_trial(Scenario scenario, std::uint32_t n_functions,
                                 support::Rng& rng) {
  // One model draw per trial; the defense module owns the model.
  const defense::TrialStats one =
      scenario == Scenario::kBruteForceFixed
          ? defense::simulate_fixed(n_functions, 1, rng)
          : defense::simulate_rerandomized(n_functions, 1, rng);
  TrialResult result;
  result.success = true;  // both models run until the attacker succeeds
  result.attempts = one.mean_attempts;
  return result;
}

/// The calling worker thread's board, powered on. A trial sees exactly a
/// freshly constructed Board (Board::power_on's contract) without paying
/// for one: the board, its flash and its mapped code caches are built once
/// per thread and only the pages a trial touches are ever backed.
sim::Board& worker_board() {
  thread_local sim::Board board;
  board.power_on();
  return board;
}

defense::MasterConfig master_config(const CampaignConfig& config, bool sweep,
                                    support::Rng& rng) {
  defense::MasterConfig mcfg;
  mcfg.seed = rng.next();  // per-trial permutation stream
  mcfg.watchdog_timeout_cycles = config.watchdog_timeout_cycles;
  // Randomization is normally *off* in the sweeps
  // (CampaignConfig::detect_randomize) so the attack executes as designed
  // and the result isolates what the detectors — not stale gadget
  // addresses — catch; switching it on measures the combined defense.
  if (sweep) mcfg.randomize_enabled = config.detect_randomize;
  return mcfg;
}

bool is_sweep(Scenario scenario) {
  return scenario == Scenario::kDetectSweep ||
         scenario == Scenario::kAnalyzeSweep;
}

}  // namespace

Rig::Rig(const SimFixture& fx, const CampaignConfig& config,
         sim::Board& board, support::Rng& rng)
    : sweep(is_sweep(config.scenario)),
      board(board),
      master(flash, board, master_config(config, sweep, rng)) {
  board.cpu().set_exec_tier(config.exec_tier);
  if (sweep) {
    detect::EngineConfig ecfg;
    ecfg.detectors = config.detectors;
    // Analyze sweep: the derived per-function policy rides on top of the
    // configured generic set. With analyze_policy off the same trial is
    // the generic baseline the detection-rate delta is measured against.
    const bool derived = config.scenario == Scenario::kAnalyzeSweep &&
                         config.analyze_policy;
    if (derived) ecfg.detectors |= detect::kDetectPolicy;
    engine.emplace(ecfg);
    engine->arm(board.cpu());
    master.attach_detector(&*engine);
    if (derived) master.attach_policy(&fx.policy);
  }
  master.host_upload(fx.container);
  master.boot();
}

std::shared_ptr<const WarmStart> make_warm_start(const CampaignConfig& config,
                                                 const SimFixture& fx) {
  if (!is_sweep(config.scenario) || config.detect_randomize ||
      config.warmup_cycles == 0) {
    return nullptr;
  }
  // With randomization off the master programs the container verbatim and
  // never draws from its seed: every trial's rig boots to this one's
  // state, whatever its Rng stream.
  support::Rng rng(config.seed);
  Rig rig(fx, config, worker_board(), rng);
  rig.board.run_cycles(config.warmup_cycles);
  return std::make_shared<const WarmStart>(
      WarmStart{rig.board.save(), rig.engine->state()});
}

void warm_up(Rig& rig, const CampaignConfig& config, const WarmStart* warm) {
  if (warm == nullptr) {
    rig.board.run_cycles(config.warmup_cycles);
    return;
  }
  rig.board.restore(warm->board);
  rig.engine->restore(warm->engine);
}

// v1/v2/v3 attack a fresh permutation with no engine armed; the sweeps
// attribute each detection to their engine and time it from payload
// delivery.
TrialResult fly_attack(Rig& rig, const SimFixture& fx,
                       const CampaignConfig& config, support::Rng& rng) {
  sim::Board& board = rig.board;

  const DetectAttack flight =
      config.scenario == Scenario::kV1   ? DetectAttack::kV1
      : config.scenario == Scenario::kV2 ? DetectAttack::kV2
      : config.scenario == Scenario::kV3 ? DetectAttack::kV3
                                         : config.detect_attack;
  const attack::Write3 write{fx.plan.gyro_cal_addr, {0xD1, 0x07, 0x00}};
  std::vector<support::Bytes> payloads;
  if (flight != DetectAttack::kClean) {
    // The attacker's guess: stock-derived plan, randomly chosen pivot
    // gadget (every gadget address is stale against a fresh permutation).
    attack::AttackPlan guess = fx.plan;
    guess.stk = fx.usable_stk[rng.below(fx.usable_stk.size())];
    const attack::RopChainBuilder builder = guess.builder();
    switch (flight) {
      case DetectAttack::kV1:
        payloads.push_back(builder.v1_payload(write));
        break;
      case DetectAttack::kV2:
        payloads.push_back(builder.v2_payload({write}));
        break;
      case DetectAttack::kV3:
        payloads = builder.v3_payloads(kV3StagingAddr, {write});
        break;
      case DetectAttack::kClean:
        break;
    }
  }

  const std::uint64_t attack_cycle = board.cpu().cycles();
  sim::GroundStation gcs(board);
  for (const support::Bytes& p : payloads) gcs.send_raw_param_set(p);

  TrialResult result;
  auto landed = [&] {
    return board.cpu().data().raw(fx.plan.gyro_cal_addr) == write.bytes[0] &&
           board.cpu().data().raw(fx.plan.gyro_cal_addr + 1) == write.bytes[1];
  };
  for (std::uint32_t s = 0; s < config.attack_slices; ++s) {
    board.run_cycles(config.slice_cycles);
    // Check the write before servicing the watchdog: a detection reflashes
    // the board and wipes the evidence.
    if (!result.success && flight != DetectAttack::kClean && landed()) {
      result.success = true;
      // Without an engine a landed write ends the trial. With one the
      // flight goes on: a stealthy write can land in the same slice the
      // detector flags the pivot — the campaign reports both, the
      // detection rate is what ranks the detectors.
      if (!rig.engine) break;
    }
    if (rig.master.service()) {
      result.detected = true;
      if (rig.engine) {
        // The master's recovery already reset the engine's latch; the
        // verdict log and lifetime trip counter survive for attribution.
        const detect::Engine& engine = *rig.engine;
        result.detector_fired = engine.total_trips() > 0;
        std::uint64_t at = board.cpu().cycles();
        if (!engine.verdicts().empty()) at = engine.verdicts().front().cycle;
        result.ttd_cycles = at > attack_cycle ? at - attack_cycle : 0;
      }
      break;
    }
  }
  if (flight == DetectAttack::kClean) {
    // A clean flight succeeds by surviving: no detection, no crash.
    result.success = !result.detected && !board.crashed();
  }
  return result;
}

namespace {

// The fault sweep's tail (the reflash pipeline under an armed fault plane):
// the rig's clean boot established the last-known-good image, now the
// plane is armed on every hardware boundary and a scheduled
// re-randomization runs under fault pressure. The pipeline must end in one
// of three verified states — fresh image (success), last-known-good
// fallback or a held bootloader (degraded) — and the released image must
// actually run.
TrialResult fault_tail(Rig& rig, const CampaignConfig& config,
                       support::Rng& rng) {
  sim::Board& board = rig.board;
  defense::MasterProcessor& master = rig.master;

  // Arm the plane on all three boundaries. Its schedule comes from a child
  // stream forked off the trial Rng, so it is bit-reproducible per trial.
  support::FaultPlane plane(support::FaultConfig::uniform(config.fault_rate),
                            rng.fork(1));
  rig.flash.attach_faults(&plane);
  board.attach_faults(&plane);
  master.attach_faults(&plane);
  master.boot();  // the re-randomization under test

  TrialResult result;
  result.degraded =
      master.health_state() != defense::MasterHealth::kHealthy;
  result.success = !result.degraded;
  result.attempts = 1.0 + static_cast<double>(master.health().page_retries +
                                              master.health().image_retries);
  if (!board.in_bootloader()) {
    if (master.last_startup()) {
      result.startup_ms = master.last_startup()->total_ms;
    }
    // The released image must run — a torn image would crash here.
    board.run_cycles(config.slice_cycles);
    if (board.crashed()) {
      result.success = false;
      result.degraded = true;
    }
  }
  return result;
}

}  // namespace

SimFixture make_sim_fixture(const firmware::AppProfile& profile) {
  SimFixture fx;
  fx.fw = firmware::generate(profile, toolchain::ToolchainOptions::mavr());
  fx.plan = attack::analyze(fx.fw.image);
  fx.container_hex = defense::preprocess_to_hex(fx.fw.image);
  fx.container = toolchain::intel_hex_decode(fx.container_hex).data;
  attack::GadgetFinder finder(fx.fw.image);
  for (const attack::StkMoveGadget& g : finder.stk_moves()) {
    if (g.pops.size() <= 3) fx.usable_stk.push_back(g);  // chain must fit
  }
  MAVR_CHECK(!fx.usable_stk.empty(), "no usable stk_move gadgets");
  fx.policy = analysis::Analyzer().analyze(fx.fw.image).policy;
  return fx;
}

TrialFn make_trial_fn(const CampaignConfig& config,
                      const SimFixture* fixture) {
  if (scenario_uses_board(config.scenario)) {
    MAVR_REQUIRE(fixture != nullptr, "board scenarios require a SimFixture");
    // Built once here and shared read-only by every copy of the fn, so by
    // every worker thread (null where the prefix depends on the trial).
    std::shared_ptr<const WarmStart> warm = make_warm_start(config, *fixture);
    return [fx = fixture, cfg = config, warm = std::move(warm)](
               std::uint64_t, support::Rng& rng) {
      Rig rig(*fx, cfg, worker_board(), rng);
      const std::uint64_t start_cycles = rig.board.cpu().cycles();
      TrialResult result;
      if (cfg.scenario == Scenario::kFaultSweep) {
        result = fault_tail(rig, cfg, rng);
      } else {
        warm_up(rig, cfg, warm.get());
        result = fly_attack(rig, *fx, cfg, rng);
      }
      result.cycles = rig.board.cpu().cycles() - start_cycles;
      return result;
    };
  }
  const Scenario scenario = config.scenario;
  const std::uint32_t n_functions = config.n_functions;
  return [scenario, n_functions](std::uint64_t, support::Rng& rng) {
    return run_bruteforce_trial(scenario, n_functions, rng);
  };
}

CampaignStats run_campaign(const CampaignConfig& config,
                           const SimFixture& fixture) {
  MAVR_REQUIRE(scenario_uses_board(config.scenario),
               "fixture overload is for board scenarios");
  return run_trials(config, make_trial_fn(config, &fixture));
}

CampaignStats run_campaign(const CampaignConfig& config) {
  if (scenario_uses_board(config.scenario)) {
    const SimFixture fixture =
        make_sim_fixture(firmware::testapp(/*vulnerable=*/true));
    return run_trials(config, make_trial_fn(config, &fixture));
  }
  return run_trials(config, make_trial_fn(config, nullptr));
}

}  // namespace mavr::campaign
