// The board-trial harness behind make_trial_fn, one phase at a time
// (DESIGN.md §8): build and boot a rig, fly it to cruise, then fly the
// attack. make_trial_fn runs the phases in that order for every board
// scenario but the fault sweep; its tests drive them one by one to hold a
// warm start against the warm-up it replaces.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "campaign/campaign.hpp"
#include "campaign/scenarios.hpp"
#include "defense/external_flash.hpp"
#include "defense/master.hpp"
#include "detect/engine.hpp"
#include "sim/board.hpp"
#include "support/rng.hpp"

namespace mavr::campaign {

/// One board trial's layer objects, booted: `board`, powered on by the
/// caller, behind a MAVR master seeded from the trial Rng's first draw,
/// the fixture's container uploaded and programmed. The detect and analyze
/// sweeps arm a runtime detection engine first; the boot rebuilds its CFI
/// set.
struct Rig {
  Rig(const SimFixture& fx, const CampaignConfig& config, sim::Board& board,
      support::Rng& rng);
  Rig(const Rig&) = delete;  // the master and engine point into the rig

  const bool sweep;  ///< detect or analyze sweep
  defense::ExternalFlash flash;
  sim::Board& board;
  defense::MasterProcessor master;
  std::optional<detect::Engine> engine;  ///< armed in the sweeps only
};

/// What a sweep's warm-up leaves on the board and in the engine, by value.
struct WarmStart {
  sim::Board::Snapshot board;
  detect::Engine::State engine;
};

/// Boots one rig on the calling thread's board, flies the warm-up and
/// keeps the result, when the pre-attack prefix is the same in every
/// trial: a detect or analyze sweep with `detect_randomize` off and a
/// nonzero warm-up. Null for every other config.
std::shared_ptr<const WarmStart> make_warm_start(const CampaignConfig& config,
                                                 const SimFixture& fx);

/// Flies a booted rig to cruise: restores `warm` when given (it must come
/// from make_warm_start for the same config), else flies
/// `config.warmup_cycles`.
void warm_up(Rig& rig, const CampaignConfig& config, const WarmStart* warm);

/// Takes one stock-derived payload from the ground station and flies on in
/// watchdog-serviced slices. `rng` is the trial's stream after the rig.
TrialResult fly_attack(Rig& rig, const SimFixture& fx,
                       const CampaignConfig& config, support::Rng& rng);

}  // namespace mavr::campaign
