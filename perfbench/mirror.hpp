// Traced mirror of the campaign's board-scenario trial bodies.
//
// Each function here repeats what `campaign::make_trial_fn` runs for its
// scenario, call for call and in the same order of Rng draws, using only
// public calls into the layers. Around each call it records a span, and
// after each trial it reads the layers' own counters. The mirror is
// correct when its CampaignStats equal the untraced run's bit for bit.
#pragma once

#include <cstdint>

#include "campaign/campaign.hpp"
#include "campaign/scenarios.hpp"
#include "spans.hpp"

namespace perfbench {

/// Counters read from the layers after each traced trial.
struct LayerCounters {
  std::uint64_t trials = 0;
  std::uint64_t instructions = 0;        ///< Cpu::instructions_retired()
  std::uint64_t block_instructions = 0;  ///< TierStats::block_instructions
  std::uint64_t translations = 0;        ///< TierStats::blocks_translated
  std::uint64_t side_exits = 0;
  std::uint64_t interp_steps = 0;
  std::uint64_t reflashes = 0;     ///< verified programming passes released
  std::uint64_t page_retries = 0;  ///< ReflashHealth::page_retries
  std::uint64_t pages_placed = 0;  ///< pages of the released passes
  std::uint64_t detector_trips = 0;  ///< detect::Engine::total_trips()
};

/// Traced trial body for a board scenario. `fixture`, `log` and `counters`
/// must outlive the returned fn, which must run on one thread at a time.
mavr::campaign::TrialFn traced_trial_fn(
    const mavr::campaign::CampaignConfig& config,
    const mavr::campaign::SimFixture& fixture, SpanLog& log,
    LayerCounters& counters);

}  // namespace perfbench
