#include "mirror.hpp"

#include <optional>
#include <vector>

#include "defense/external_flash.hpp"
#include "defense/master.hpp"
#include "detect/engine.hpp"
#include "sim/board.hpp"
#include "sim/ground.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"

namespace perfbench {

namespace {

using mavr::campaign::CampaignConfig;
using mavr::campaign::DetectAttack;
using mavr::campaign::Scenario;
using mavr::campaign::SimFixture;
using mavr::campaign::TrialResult;
namespace attack = mavr::attack;
namespace defense = mavr::defense;
namespace detect = mavr::detect;
namespace sim = mavr::sim;
namespace support = mavr::support;

/// Same staging address as the campaign's V3 scenario.
constexpr std::uint16_t kV3StagingAddr = 0x1B00;

/// The layer objects of one trial. They are held in optionals so that both
/// their construction and their destruction can sit inside spans.
struct Rig {
  std::optional<defense::ExternalFlash> flash;
  std::optional<sim::Board> board;
  std::optional<defense::MasterProcessor> master;
  std::optional<detect::Engine> engine;
  std::optional<support::FaultPlane> plane;
};

class TrialTracer {
 public:
  TrialTracer(const SimFixture& fx, const CampaignConfig& config, SpanLog& log,
              LayerCounters& counters, std::uint64_t trial)
      : fx_(fx), config_(config), log_(log), counters_(counters),
        trial_(trial) {}

  TrialResult run(support::Rng& rng) {
    const Scope root(log_, "trial", trial_);
    TrialResult result;
    switch (config_.scenario) {
      case Scenario::kV1:
      case Scenario::kV2:
      case Scenario::kV3:
        result = board_trial(rng);
        break;
      case Scenario::kDetectSweep:
      case Scenario::kAnalyzeSweep:
        result = detect_trial(rng);
        break;
      case Scenario::kFaultSweep:
        result = fault_trial(rng);
        break;
      default:
        MAVR_CHECK(false, "not a board scenario");
    }
    collect();
    teardown();
    return result;
  }

 private:
  void new_board() {
    rig_.flash.emplace();
    const Scope s(log_, "sim.board_new", trial_);
    rig_.board.emplace();
    rig_.board->cpu().set_exec_tier(config_.exec_tier);
  }

  void new_master(const defense::MasterConfig& mcfg) {
    const Scope s(log_, "defense.master_new", trial_);
    rig_.master.emplace(*rig_.flash, *rig_.board, mcfg);
  }

  void upload_and_boot() {
    {
      const Scope s(log_, "toolchain.upload", trial_);
      rig_.master->host_upload_hex(fx_.container_hex);
    }
    boot();
  }

  void boot() {
    const Scope s(log_, "defense.boot", trial_);
    rig_.master->boot();
  }

  void run_cycles(std::uint64_t cycles) {
    Scope s(log_, "avr.run", trial_);
    const std::uint64_t before = rig_.board->cpu().cycles();
    rig_.board->run_cycles(cycles);
    s.cycles = rig_.board->cpu().cycles() - before;
  }

  bool service() {
    const Scope s(log_, "defense.service", trial_);
    return rig_.master->service();
  }

  std::vector<support::Bytes> payloads(DetectAttack kind,
                                       const attack::Write3& write,
                                       support::Rng& rng) {
    const Scope s(log_, "attack.payload", trial_);
    attack::AttackPlan guess = fx_.plan;
    guess.stk = fx_.usable_stk[rng.below(fx_.usable_stk.size())];
    const attack::RopChainBuilder builder = guess.builder();
    std::vector<support::Bytes> out;
    switch (kind) {
      case DetectAttack::kV1:
        out.push_back(builder.v1_payload(write));
        break;
      case DetectAttack::kV2:
        out.push_back(builder.v2_payload({write}));
        break;
      case DetectAttack::kV3:
        out = builder.v3_payloads(kV3StagingAddr, {write});
        break;
      case DetectAttack::kClean:
        break;
    }
    return out;
  }

  void deliver(const std::vector<support::Bytes>& payloads) {
    const Scope s(log_, "sim.deliver", trial_);
    sim::GroundStation gcs(*rig_.board);
    for (const support::Bytes& p : payloads) gcs.send_raw_param_set(p);
  }

  bool landed(const attack::Write3& write) const {
    const auto& data = rig_.board->cpu().data();
    return data.raw(fx_.plan.gyro_cal_addr) == write.bytes[0] &&
           data.raw(fx_.plan.gyro_cal_addr + 1) == write.bytes[1];
  }

  defense::MasterConfig master_config(support::Rng& rng) const {
    defense::MasterConfig mcfg;
    mcfg.seed = rng.next();
    mcfg.watchdog_timeout_cycles = config_.watchdog_timeout_cycles;
    return mcfg;
  }

  // Mirrors run_board_trial (scenarios v1/v2/v3).
  TrialResult board_trial(support::Rng& rng) {
    new_board();
    new_master(master_config(rng));
    upload_and_boot();
    const std::uint64_t start_cycles = rig_.board->cpu().cycles();
    run_cycles(config_.warmup_cycles);

    const attack::Write3 write{fx_.plan.gyro_cal_addr, {0xD1, 0x07, 0x00}};
    const DetectAttack kind =
        config_.scenario == Scenario::kV1   ? DetectAttack::kV1
        : config_.scenario == Scenario::kV2 ? DetectAttack::kV2
                                            : DetectAttack::kV3;
    deliver(payloads(kind, write, rng));

    TrialResult result;
    for (std::uint32_t s = 0; s < config_.attack_slices; ++s) {
      run_cycles(config_.slice_cycles);
      if (landed(write)) {
        result.success = true;
        break;
      }
      if (service()) {
        result.detected = true;
        break;
      }
    }
    result.attempts = 1;
    result.cycles = rig_.board->cpu().cycles() - start_cycles;
    return result;
  }

  // Mirrors run_detect_trial (scenarios detect-sweep and analyze-sweep).
  TrialResult detect_trial(support::Rng& rng) {
    new_board();
    defense::MasterConfig mcfg = master_config(rng);
    mcfg.randomize_enabled = config_.detect_randomize;
    new_master(mcfg);
    const bool derived = config_.scenario == Scenario::kAnalyzeSweep &&
                         config_.analyze_policy;
    {
      const Scope s(log_, "detect.engine_new", trial_);
      detect::EngineConfig ecfg;
      ecfg.detectors = config_.detectors;
      if (derived) ecfg.detectors |= detect::kDetectPolicy;
      rig_.engine.emplace(ecfg);
      rig_.engine->arm(rig_.board->cpu());
      rig_.master->attach_detector(&*rig_.engine);
      if (derived) rig_.master->attach_policy(&fx_.policy);
    }
    upload_and_boot();
    const std::uint64_t start_cycles = rig_.board->cpu().cycles();
    run_cycles(config_.warmup_cycles);

    const attack::Write3 write{fx_.plan.gyro_cal_addr, {0xD1, 0x07, 0x00}};
    std::vector<support::Bytes> sent;
    if (config_.detect_attack != DetectAttack::kClean) {
      sent = payloads(config_.detect_attack, write, rng);
    }
    const std::uint64_t attack_cycle = rig_.board->cpu().cycles();
    deliver(sent);

    TrialResult result;
    for (std::uint32_t s = 0; s < config_.attack_slices; ++s) {
      run_cycles(config_.slice_cycles);
      if (!result.success && config_.detect_attack != DetectAttack::kClean &&
          landed(write)) {
        result.success = true;
      }
      if (service()) {
        result.detected = true;
        const detect::Engine& engine = *rig_.engine;
        result.detector_fired = engine.total_trips() > 0;
        std::uint64_t at = rig_.board->cpu().cycles();
        if (!engine.verdicts().empty()) at = engine.verdicts().front().cycle;
        result.ttd_cycles = at > attack_cycle ? at - attack_cycle : 0;
        break;
      }
    }
    if (config_.detect_attack == DetectAttack::kClean) {
      result.success = !result.detected && !rig_.board->crashed();
    }
    result.attempts = 1;
    result.cycles = rig_.board->cpu().cycles() - start_cycles;
    return result;
  }

  // Mirrors run_fault_trial (scenario fault-sweep).
  TrialResult fault_trial(support::Rng& rng) {
    new_board();
    new_master(master_config(rng));
    upload_and_boot();
    const std::uint64_t start_cycles = rig_.board->cpu().cycles();

    rig_.plane.emplace(support::FaultConfig::uniform(config_.fault_rate),
                       rng.fork(1));
    rig_.flash->attach_faults(&*rig_.plane);
    rig_.board->attach_faults(&*rig_.plane);
    rig_.master->attach_faults(&*rig_.plane);
    boot();

    TrialResult result;
    result.degraded =
        rig_.master->health_state() != defense::MasterHealth::kHealthy;
    result.success = !result.degraded;
    result.attempts =
        1.0 + static_cast<double>(rig_.master->health().page_retries +
                                  rig_.master->health().image_retries);
    if (!rig_.board->in_bootloader()) {
      if (rig_.master->last_startup()) {
        result.startup_ms = rig_.master->last_startup()->total_ms;
      }
      run_cycles(config_.slice_cycles);
      if (rig_.board->crashed()) {
        result.success = false;
        result.degraded = true;
      }
    }
    result.cycles = rig_.board->cpu().cycles() - start_cycles;
    return result;
  }

  void collect() {
    const mavr::avr::Cpu& cpu = rig_.board->cpu();
    const mavr::avr::TierStats& tier = cpu.tier_stats();
    const defense::MasterProcessor& master = *rig_.master;
    LayerCounters& c = counters_;
    ++c.trials;
    c.instructions += cpu.instructions_retired();
    c.block_instructions += tier.block_instructions;
    c.translations += tier.blocks_translated;
    c.side_exits += tier.side_exits;
    c.interp_steps += tier.interp_steps;
    const std::uint64_t released =
        master.randomizations() + master.health().fallbacks_to_last_good;
    c.reflashes += released;
    c.page_retries += master.health().page_retries;
    if (master.last_startup()) {
      const std::uint32_t page = cpu.spec().flash_page_bytes;
      c.pages_placed +=
          released * ((master.last_startup()->image_bytes + page - 1) / page);
    }
    if (rig_.engine) c.detector_trips += rig_.engine->total_trips();
  }

  // Destroys the layer objects in the reverse order the campaign's trial
  // bodies declare them.
  void teardown() {
    rig_.plane.reset();
    rig_.engine.reset();
    {
      const Scope s(log_, "defense.master_free", trial_);
      rig_.master.reset();
    }
    const Scope s(log_, "sim.board_free", trial_);
    rig_.board.reset();
    rig_.flash.reset();
  }

  const SimFixture& fx_;
  const CampaignConfig& config_;
  SpanLog& log_;
  LayerCounters& counters_;
  const std::uint64_t trial_;
  Rig rig_;
};

}  // namespace

mavr::campaign::TrialFn traced_trial_fn(const CampaignConfig& config,
                                        const SimFixture& fixture,
                                        SpanLog& log, LayerCounters& counters) {
  MAVR_REQUIRE(mavr::campaign::scenario_uses_board(config.scenario) &&
                   config.scenario != Scenario::kBruteForceFixed &&
                   config.scenario != Scenario::kBruteForceRerand,
               "the traced mirror covers board scenarios only");
  return [&fixture, config, &log, &counters](std::uint64_t trial,
                                             support::Rng& rng) {
    return TrialTracer(fixture, config, log, counters, trial).run(rng);
  };
}

}  // namespace perfbench
