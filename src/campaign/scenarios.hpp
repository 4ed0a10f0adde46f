// Scenario implementations for the campaign engine.
//
// Board scenarios (v1/v2/v3) replay the paper's §VII-A evaluation at
// population scale: every trial gets a board in freshly constructed state
// (its worker thread's board, powered on) behind a MAVR master seeded from
// the trial's forked Rng stream, so each trial attacks a *different* fresh
// permutation with a payload derived from the stock binary (threat model
// §IV-A — the attacker never sees the randomized image). Brute-force
// scenarios run the §V-D analytic models' Monte-Carlo counterparts, one
// model draw per trial.
#pragma once

#include "attack/attacks.hpp"
#include "campaign/campaign.hpp"
#include "detect/policy.hpp"
#include "firmware/generator.hpp"
#include "firmware/profile.hpp"
#include "support/bytes.hpp"

namespace mavr::campaign {

/// Shared read-only state for the board scenarios: everything the paper's
/// attacker computes offline from the stock binary, built once per
/// campaign and read concurrently by all workers.
struct SimFixture {
  firmware::Firmware fw;            ///< stock vulnerable build (MAVR flags)
  attack::AttackPlan plan;          ///< offline analysis of the stock image
  std::string container_hex;       ///< preprocessed container for the master
  support::Bytes container;         ///< container_hex decoded, for uploads
  std::vector<attack::StkMoveGadget> usable_stk;  ///< brute-forceable guesses
  /// Analysis-derived per-function detector policy (blob function order),
  /// computed once from the stock image — layout-invariant, so every
  /// trial's master re-materializes the same set against its own fresh
  /// permutation (analyze-sweep scenario, DESIGN.md §15).
  detect::PolicySet policy;
};

/// Builds the offline-attacker fixture for `profile` (generates and links
/// the firmware — milliseconds, done once per campaign).
SimFixture make_sim_fixture(const firmware::AppProfile& profile);

/// Trial body for `config`: the unit a worker — in-process thread pool or
/// campaignd worker process — evaluates per trial index. Board scenarios
/// require `fixture` (which must outlive the returned fn); model scenarios
/// ignore it. The config is captured by value, so the returned fn is
/// self-contained apart from the fixture.
TrialFn make_trial_fn(const CampaignConfig& config, const SimFixture* fixture);

/// Runs the configured scenario on a prebuilt fixture (board scenarios) —
/// use when several campaigns share one firmware build.
CampaignStats run_campaign(const CampaignConfig& config,
                           const SimFixture& fixture);

/// Front door: builds whatever the scenario needs and runs it. Board
/// scenarios use the fast-to-simulate `firmware::testapp` profile.
CampaignStats run_campaign(const CampaignConfig& config);

}  // namespace mavr::campaign
