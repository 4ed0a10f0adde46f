// mavr-campaignd coordinator: admits campaigns from clients, shards their
// chunk ranges across worker connections, checkpoints every completed
// chunk, and serves incremental aggregates to polling clients
// (DESIGN.md §12–§13).
//
// Scheduling is fair FIFO: assignments are always drawn from the oldest
// incomplete campaign, so campaigns complete in admission order. *How
// many* chunks one kWorkRequest receives is throughput-aware: the
// coordinator keeps a per-connection EWMA of chunk completion rate and
// scales the grain so a slow machine holds fewer chunks (bounding the
// reclaim cost if it dies) while the fastest stays fully fed. Only the
// batch size varies — assignment order is deterministic, and chunk values
// depend on (config, index) alone, so the bit-identical invariant is
// untouched. Backpressure is a bound on admitted-but-incomplete
// campaigns — a submit beyond it is rejected, not queued unboundedly.
//
// Transport is a `support::Listener` on AF_UNIX or TCP. Every connection
// starts with the protocol handshake: version check, then HMAC
// challenge-response over `auth_token` — a TCP listener has no filesystem
// permissions, so unauthenticated peers are dropped before any campaign
// state is touched.
//
// Fault model: a worker is trusted to be *crash-faulty only* (it may die
// at any byte boundary; it does not lie — chunks are deterministic, so a
// duplicate result is byte-identical). Worker death is observed as its
// connection closing or going silent past the assignment timeout; either
// way the chunks it held return to the pending pool and the next
// kWorkRequest re-assigns them. Determinism holds because a chunk's value
// depends only on (config, chunk index), never on which worker ran it or
// how many times it was attempted.
//
// Straggler recovery (DESIGN.md §14) extends the same argument to *slow*
// workers: when no pending work remains, an idle worker may be handed a
// second copy of a chunk whose assignment age exceeds a deadline derived
// from the campaign's EWMA chunk service time. Whichever copy lands first
// is merged; the loser is a byte-identical duplicate and is acknowledged
// but not re-merged. Speculation therefore trades bounded duplicate
// compute for tail latency without ever touching result bits.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaignd/checkpoint.hpp"
#include "campaignd/protocol.hpp"
#include "support/netfault.hpp"
#include "support/socket.hpp"

namespace mavr::campaignd {

struct CoordinatorConfig {
  /// Endpoint spec: `unix:/path`, `tcp:host:port` (port 0 = ephemeral),
  /// or a bare AF_UNIX path.
  std::string listen_endpoint;
  std::string checkpoint_path;  ///< empty: no persistence, no resume
  /// Shared handshake token. Empty (the AF_UNIX default) still runs the
  /// handshake — version check plus proof of the *empty* token — so a
  /// peer configured with a token is rejected rather than half-trusted.
  std::string auth_token;
  /// Backpressure bound: admitted-but-incomplete campaigns. A kSubmit
  /// that would exceed it gets kReject("campaign queue full").
  std::size_t max_queue = 8;
  /// Chunks handed out per kAssign to the fastest connection. The
  /// sharding grain above the fixed 64-trial chunk: bigger amortizes
  /// round-trips, smaller re-balances and reassigns-on-death at finer
  /// granularity. Slower connections receive a proportional share
  /// (see scaled_assign_chunks), never less than 1.
  std::uint32_t assign_chunks = 4;
  /// A connection holding an assignment that stays silent this long is
  /// declared dead and its chunks are reassigned.
  int worker_timeout_ms = 120'000;
  /// Idle worker re-poll hint carried in kWait.
  std::uint32_t wait_hint_ms = 20;

  // --- straggler speculation (DESIGN.md §14) ----------------------------
  // Idle workers always get duplicate copies of overdue in-flight chunks
  // once no pending work remains; the deadline multiple and the copy
  // ceiling are fixed (kSpeculationFactor, kSpeculationMaxCopies in
  // coordinator.cpp).
  /// A chunk is never declared overdue before this age — the floor keeps
  /// a cold EWMA (first chunks of a campaign) from triggering copies.
  int speculation_min_ms = 2'000;

  // --- chaos plane (support/netfault) -----------------------------------
  /// When any rate is nonzero, every accepted connection is armed with a
  /// fault stream forked from `net_fault_seed`: the coordinator's own
  /// sends/recvs are then dropped/corrupted/delayed per the config. Used
  /// by the chaos suite; disarmed (all-zero) in production.
  support::NetFaultConfig net_faults;
  std::uint64_t net_fault_seed = 0;
};

/// Scheduler event tally — monotonic over a coordinator's life, readable
/// at any point (Coordinator::counters()). The chaos and speculation
/// tests pin behavior on these rather than on timing.
struct CoordinatorCounters {
  std::uint64_t chunks_assigned = 0;     ///< chunks handed out, copies incl.
  std::uint64_t speculative_assigns = 0; ///< duplicate copies handed out
  std::uint64_t duplicate_results = 0;   ///< results for already-done chunks
  std::uint64_t chunks_reclaimed = 0;    ///< re-pended after a holder died
  std::uint64_t submits_deduped = 0;     ///< kSubmit matched a live campaign
};

/// Instantaneous scheduler load (Coordinator::queue_depth()) — the signal
/// the worker-pool autoscaler consumes.
struct QueueDepth {
  std::uint64_t pending_chunks = 0;      ///< unassigned, over all campaigns
  std::uint64_t inflight_chunks = 0;     ///< assigned, result not yet merged
  std::uint64_t incomplete_campaigns = 0;
};

/// Throughput-aware grain scaling (pure; unit-tested): how many chunks a
/// connection completing `rate` chunks/sec should hold when the fastest
/// live connection completes `max_rate`. Unknown rates (<= 0, e.g. a
/// brand-new connection) are treated optimistically as fast — the first
/// completed chunk starts the estimate. Result is in [1, grain].
std::uint32_t scaled_assign_chunks(std::uint32_t grain, double rate,
                                   double max_rate);

class Coordinator {
 public:
  explicit Coordinator(CoordinatorConfig config);
  ~Coordinator();
  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Binds the listener and starts the accept loop. Throws support::Error
  /// if the endpoint cannot be parsed or bound.
  void start();

  /// Drains: stops accepting, answers outstanding worker requests with
  /// kShutdown, unblocks and joins every connection handler. Idempotent;
  /// also run by the destructor.
  void stop();

  /// Graceful-shutdown phase 1 (SIGTERM path): stop admitting campaigns
  /// (kSubmit → kReject) and stop handing out work (kWorkRequest →
  /// kShutdown), but keep accepting the chunk results workers already
  /// hold, checkpointing each. Connections stay serviceable for polls.
  void begin_drain();

  /// Graceful-shutdown phase 2: waits until no assigned chunk remains
  /// in flight (each either completed or reclaimed from a dead holder),
  /// then fsyncs the checkpoint store. False if `timeout_ms` elapsed
  /// first — callers should stop() regardless; reclaim-on-disconnect and
  /// the checkpoint log make a hard cutoff safe, just slower to resume.
  bool drain(int timeout_ms);

  /// True between begin_drain()/stop().
  bool draining() const { return draining_.load(); }

  /// Canonical spec of the endpoint actually bound (for TCP port 0 this
  /// carries the kernel-assigned port). Valid after start().
  const std::string& endpoint() const { return bound_endpoint_; }

  /// Live (unreaped) connection-handler threads; sweeps finished handlers
  /// first. The reap regression test pins this as bounded across hundreds
  /// of sequential connections.
  std::size_t handler_count();

  /// Snapshot of the scheduler event tally.
  CoordinatorCounters counters();

  /// Snapshot of instantaneous scheduler load (autoscaler signal).
  QueueDepth queue_depth();

  /// Injected-fault tally of the chaos plane (all-zero when disarmed).
  support::NetFaultStats net_fault_stats() const;

 private:
  /// An assigned-but-unmerged chunk: when it was (last) handed out and how
  /// many live copies exist. Guarded by mu_.
  struct Inflight {
    std::chrono::steady_clock::time_point last_assign;
    std::uint32_t copies = 0;
  };

  struct Campaign {
    std::uint64_t id = 0;
    campaign::CampaignConfig config;
    std::uint64_t fingerprint = 0;
    /// Exact canonical encoding — retried-submit dedup compares this, not
    /// just the fingerprint, so a hash collision cannot alias campaigns.
    std::vector<std::uint8_t> canonical;
    std::uint64_t n_chunks = 0;
    CampaignState state = CampaignState::kQueued;
    std::deque<std::uint64_t> pending;  ///< unassigned chunk indices
    std::vector<std::uint8_t> done;     ///< by chunk index
    /// Completed chunks by index (moved out after the final merge).
    std::vector<campaign::ChunkResult> results;
    std::unordered_map<std::uint64_t, Inflight> inflight;  ///< by chunk index
    /// EWMA of assignment→merge service time (seconds); 0 = no sample yet.
    /// Feeds the speculation deadline.
    double ewma_service_s = 0.0;
    std::uint64_t n_done = 0;
    std::uint64_t trials_done = 0;
    campaign::CampaignStats final_stats;
  };

  /// Chunk held by a live connection: reclaimed if the connection dies.
  using HeldChunk = std::pair<std::uint64_t, std::uint64_t>;  // id, index

  /// Per-connection throughput estimate, updated on every accepted chunk
  /// result and read by the scheduler. Guarded by conns_mu_.
  struct ConnThroughput {
    double ewma_rate = 0.0;  ///< chunks/sec; 0 = no estimate yet
    std::chrono::steady_clock::time_point last_event;
  };

  void accept_loop();
  void reap_finished();
  void serve(support::Socket sock, std::uint64_t handler_id);
  bool serve_handshake(support::Socket& sock);
  bool handle_message(support::Socket& sock, const Message& msg,
                      std::vector<HeldChunk>* held, ConnThroughput* rate);
  bool handle_work_request(support::Socket& sock,
                           std::vector<HeldChunk>* held,
                           ConnThroughput* rate);
  void speculate_overdue(std::chrono::steady_clock::time_point now,
                         std::uint32_t grain, std::vector<HeldChunk>* held,
                         AssignBody* assign);
  bool handle_chunk_result(support::Socket& sock, const Message& msg,
                           std::vector<HeldChunk>* held,
                           ConnThroughput* rate);
  bool handle_submit(support::Socket& sock, const Message& msg);
  bool handle_poll(support::Socket& sock, const Message& msg);
  void note_chunk_completed(ConnThroughput* rate);
  std::uint32_t current_grain(const ConnThroughput* rate);
  void reclaim(const std::vector<HeldChunk>& held);
  void finalize(Campaign* c);
  Campaign* find_campaign(std::uint64_t id);
  StatusBody status_of(const Campaign& c);

  CoordinatorConfig config_;
  CheckpointStore store_;
  support::NetFaultPlane net_plane_;
  std::unique_ptr<support::Listener> listener_;
  std::string bound_endpoint_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};
  std::thread accept_thread_;

  std::mutex mu_;  ///< guards campaigns_, counters_, every Campaign within
  std::vector<std::unique_ptr<Campaign>> campaigns_;  // admission order
  CoordinatorCounters counters_;
  std::uint64_t next_campaign_id_ = 1;

  std::mutex conns_mu_;  ///< guards handler bookkeeping below
  std::unordered_map<std::uint64_t, std::thread> handlers_;
  std::uint64_t next_handler_id_ = 1;
  /// Handlers that have run to completion and are ready to join — the
  /// accept loop (and stop()) sweeps them so the thread table stays
  /// bounded no matter how many connections come and go.
  std::vector<std::uint64_t> finished_handlers_;
  std::vector<int> live_fds_;  ///< shutdown() targets for prompt stop()
  std::vector<ConnThroughput*> conn_rates_;  ///< live connections' estimates
};

}  // namespace mavr::campaignd
