// Client side of the mavr-campaignd protocol: submit a campaign, poll
// its incremental aggregate, or block until it completes
// (DESIGN.md §12–§13).
//
// Each call is one short-lived connection — the coordinator keeps no
// per-client state, so a client can submit from one process and poll
// from another (or poll a campaign resumed by a restarted coordinator,
// after resubmitting the same config to obtain its new id). Endpoints
// are specs (`unix:/path`, `tcp:host:port`, or a bare AF_UNIX path);
// every connection runs the handshake, proving `auth_token` (empty by
// default, matching a coordinator without one).
//
// Resilience (DESIGN.md §14): every operation can retry across transient
// transport failures with full-jitter exponential backoff. Retries are
// safe end to end — kSubmit is idempotent at the coordinator (a retried
// submit lands on the campaign the lost reply admitted), and kPoll is a
// read. wait_campaign keeps a *consecutive*-failure budget: any
// successful poll resets it, so a campaign is only abandoned after the
// coordinator has been unreachable for the whole ladder, not after one
// dropped frame. Progress resumes transparently from the coordinator's
// incremental aggregate — the client carries no replayable state.
#pragma once

#include <cstdint>
#include <string>

#include "campaign/campaign.hpp"
#include "campaignd/protocol.hpp"
#include "support/netfault.hpp"

namespace mavr::campaignd {

struct ClientOptions {
  /// Shared handshake token; must match the coordinator's.
  std::string auth_token;
  /// Reply deadline per request (also the handshake budget).
  int reply_timeout_ms = 10'000;
  /// Transient-failure retries per operation (0 = fail on first); a
  /// refused connect is one such failure. For wait_campaign this budget
  /// is *consecutive*: any successful poll resets it.
  int max_retries = 0;
  /// Full-jitter exponential backoff between retries (support::Backoff).
  int retry_backoff_ms = 50;
  int retry_backoff_max_ms = 2'000;
  /// Jitter stream seed — distinct per client so a coordinator restart
  /// does not see every client reconnect in lockstep.
  std::uint64_t retry_seed = 1;
  /// Chaos plane: when set, every connection this client opens is armed
  /// with a fault stream (tests drive client-side faults through this).
  support::NetFaultPlane* fault_plane = nullptr;
};

struct SubmitOutcome {
  bool ok = false;
  std::uint64_t campaign_id = 0;  ///< valid when ok
  std::string error;              ///< reject reason / transport failure
};

struct PollOutcome {
  bool ok = false;
  StatusBody status;  ///< valid when ok
  std::string error;
};

/// Submits `config` to the coordinator at `endpoint`. config.jobs is not
/// transmitted — sharding is the coordinator's concern. Retries transient
/// transport failures per `options` (safe: submit is idempotent).
SubmitOutcome submit_campaign(const std::string& endpoint,
                              const campaign::CampaignConfig& config,
                              const ClientOptions& options = {});

/// One status snapshot for `campaign_id` (retrying per `options`).
PollOutcome poll_campaign(const std::string& endpoint,
                          std::uint64_t campaign_id,
                          const ClientOptions& options = {});

/// Polls every `interval_ms` until the campaign reports kDone, the
/// consecutive-failure budget is exhausted, a permanent rejection occurs,
/// or `timeout_ms` elapses (timeout_ms < 0 = wait forever). On success
/// the returned status carries the final CampaignStats — bit-identical
/// to what run_trials would produce in-process.
PollOutcome wait_campaign(const std::string& endpoint,
                          std::uint64_t campaign_id,
                          const ClientOptions& options = {},
                          int interval_ms = 50, int timeout_ms = -1);

}  // namespace mavr::campaignd
