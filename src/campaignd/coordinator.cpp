#include "campaignd/coordinator.hpp"

#include <algorithm>
#include <cmath>

#include <sys/socket.h>

#include "campaign/wire.hpp"
#include "support/error.hpp"

namespace mavr::campaignd {

namespace {

namespace wire = campaign::wire;

/// recv slice inside connection handlers: short enough that stop() and
/// the assignment timeout are responsive, long enough to stay off the CPU.
constexpr int kServeSliceMs = 100;

/// Total budget for a peer to complete the handshake. A TCP connection
/// that never speaks (port scanner, half-open probe) is dropped here
/// instead of pinning a handler thread on the recv loop.
constexpr int kHandshakeTimeoutMs = 10'000;

/// Admission cap on one campaign. Keeps a hostile or typo'd submit from
/// making the coordinator reserve gigabytes of per-chunk bookkeeping.
constexpr std::uint64_t kMaxTrialsPerCampaign = 100'000'000;

/// EWMA smoothing for per-connection chunk completion rate: ~70% of the
/// weight inside the last three samples — quick to notice a machine
/// slowing down, tolerant of one odd chunk.
constexpr double kRateAlpha = 0.3;

/// Overdue deadline as a multiple of the campaign's EWMA chunk service
/// time (assignment → accepted result, transit included).
constexpr double kSpeculationFactor = 3.0;

/// Ceiling on simultaneous copies of one chunk, the original included.
/// Speculation is safe at any ceiling: duplicates are byte-identical and
/// deduplicated at merge.
constexpr std::uint32_t kSpeculationMaxCopies = 2;
static_assert(kSpeculationMaxCopies >= 1,
              "a chunk's original assignment is its first copy");

}  // namespace

std::uint32_t scaled_assign_chunks(std::uint32_t grain, double rate,
                                   double max_rate) {
  if (grain <= 1 || rate <= 0.0 || max_rate <= 0.0) return grain;
  if (rate >= max_rate) return grain;
  const double share = std::ceil(static_cast<double>(grain) *
                                 (rate / max_rate));
  return std::clamp<std::uint32_t>(static_cast<std::uint32_t>(share), 1,
                                   grain);
}

Coordinator::Coordinator(CoordinatorConfig config)
    : config_(std::move(config)),
      store_(config_.checkpoint_path),
      net_plane_(config_.net_faults, support::Rng(config_.net_fault_seed)) {
  MAVR_REQUIRE(!config_.listen_endpoint.empty(),
               "coordinator needs a listen endpoint");
  MAVR_REQUIRE(config_.assign_chunks >= 1, "assign_chunks must be >= 1");
  MAVR_REQUIRE(config_.max_queue >= 1, "max_queue must be >= 1");
}

Coordinator::~Coordinator() { stop(); }

void Coordinator::start() {
  MAVR_REQUIRE(listener_ == nullptr && !stopping_.load(),
               "coordinator already started");
  const auto ep = support::parse_endpoint(config_.listen_endpoint);
  if (!ep) {
    throw support::Error("malformed listen endpoint: " +
                         config_.listen_endpoint);
  }
  listener_ = std::make_unique<support::Listener>(*ep);
  bound_endpoint_ = support::endpoint_name(listener_->endpoint());
  accept_thread_ = std::thread(&Coordinator::accept_loop, this);
}

void Coordinator::stop() {
  stopping_.store(true);
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    // Kick every handler out of its blocking recv. The handler unregisters
    // its fd under conns_mu_ *before* closing it, so these fds are live.
    const std::lock_guard<std::mutex> lock(conns_mu_);
    for (int fd : live_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  std::unordered_map<std::uint64_t, std::thread> remaining;
  {
    const std::lock_guard<std::mutex> lock(conns_mu_);
    remaining.swap(handlers_);
    finished_handlers_.clear();
  }
  for (auto& [id, t] : remaining) {
    if (t.joinable()) t.join();
  }
  if (listener_) {
    listener_->close();
    listener_.reset();  // unlinks an AF_UNIX socket path
  }
  store_.sync();  // whatever the last drain/poll didn't cover
}

void Coordinator::begin_drain() { draining_.store(true); }

bool Coordinator::drain(int timeout_ms) {
  begin_drain();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  // Every in-flight chunk resolves on its own: the holder either delivers
  // the result (accepted and checkpointed even while draining) or its
  // connection dies and reclaim() re-pends the chunk. Polling is enough.
  while (queue_depth().inflight_chunks > 0) {
    if (std::chrono::steady_clock::now() >= deadline) {
      store_.sync();
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  store_.sync();
  return true;
}

CoordinatorCounters Coordinator::counters() {
  const std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

QueueDepth Coordinator::queue_depth() {
  QueueDepth depth;
  const std::lock_guard<std::mutex> lock(mu_);
  for (const std::unique_ptr<Campaign>& c : campaigns_) {
    if (c->state == CampaignState::kDone) continue;
    ++depth.incomplete_campaigns;
    depth.pending_chunks += c->pending.size();
    depth.inflight_chunks += c->inflight.size();
  }
  return depth;
}

support::NetFaultStats Coordinator::net_fault_stats() const {
  return net_plane_.stats();
}

void Coordinator::accept_loop() {
  while (!stopping_.load()) {
    support::Socket sock = listener_->accept(200);
    reap_finished();
    if (!sock.valid()) continue;
    // Chaos plane: when armed, this side's sends/recvs on the connection go
    // through its own fault stream, forked in accept order. Arming here is
    // the single interposition point — handlers stay fault-oblivious.
    net_plane_.arm(sock);
    const std::lock_guard<std::mutex> lock(conns_mu_);
    if (stopping_.load()) break;  // stop() is about to sweep live fds
    const std::uint64_t id = next_handler_id_++;
    handlers_.emplace(id,
                      std::thread(&Coordinator::serve, this, std::move(sock),
                                  id));
  }
}

void Coordinator::reap_finished() {
  // Joining under conns_mu_ would let a slow exit path block accepts, so
  // the threads are moved out first. A finished id's thread has already
  // run its last statement; join() returns as soon as it unwinds.
  std::vector<std::thread> done;
  {
    const std::lock_guard<std::mutex> lock(conns_mu_);
    for (std::uint64_t id : finished_handlers_) {
      auto it = handlers_.find(id);
      if (it == handlers_.end()) continue;  // stop() already swept it
      done.push_back(std::move(it->second));
      handlers_.erase(it);
    }
    finished_handlers_.clear();
  }
  for (std::thread& t : done) {
    if (t.joinable()) t.join();
  }
}

std::size_t Coordinator::handler_count() {
  reap_finished();
  const std::lock_guard<std::mutex> lock(conns_mu_);
  return handlers_.size();
}

bool Coordinator::serve_handshake(support::Socket& sock) {
  Message msg;
  // Sliced recv so stop() stays responsive during a peer's think time.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(kHandshakeTimeoutMs);
  const auto recv_step = [&](Message* out) -> bool {
    while (!stopping_.load() &&
           std::chrono::steady_clock::now() < deadline) {
      const support::IoStatus st = recv_message(sock, out, kServeSliceMs);
      if (st == support::IoStatus::kOk) return true;
      if (st == support::IoStatus::kClosed) return false;
    }
    return false;
  };

  if (!recv_step(&msg) || msg.type != MsgType::kHello) return false;
  HelloBody hello;
  try {
    hello = decode_hello(msg.body);
  } catch (const support::Error&) {
    return false;
  }
  if (hello.protocol_version != kProtocolVersion) {
    send_message(sock, MsgType::kReject,
                 encode_string_body("protocol version mismatch"));
    return false;
  }
  const std::uint64_t server_nonce = fresh_nonce();
  if (!send_message(sock, MsgType::kChallenge,
                    encode_u64_body(server_nonce))) {
    return false;
  }
  if (!recv_step(&msg) || msg.type != MsgType::kAuth) return false;
  support::Sha256Digest mac;
  try {
    mac = decode_mac_body(msg.body);
  } catch (const support::Error&) {
    return false;
  }
  const support::Sha256Digest expected =
      auth_mac_peer(config_.auth_token, server_nonce, hello.peer_nonce);
  if (!support::digest_equal(mac, expected)) {
    send_message(sock, MsgType::kReject,
                 encode_string_body("authentication failed"));
    return false;
  }
  return send_message(
      sock, MsgType::kHelloOk,
      encode_mac_body(auth_mac_coordinator(config_.auth_token, server_nonce,
                                           hello.peer_nonce)));
}

void Coordinator::serve(support::Socket sock, std::uint64_t handler_id) {
  ConnThroughput rate;
  {
    const std::lock_guard<std::mutex> lock(conns_mu_);
    live_fds_.push_back(sock.fd());
  }
  // Authentication gates *everything*: no campaign state is read or
  // written, and no chunk is assigned, until the peer proves the token.
  const bool authed = serve_handshake(sock);
  if (authed) {
    const std::lock_guard<std::mutex> lock(conns_mu_);
    rate.last_event = std::chrono::steady_clock::now();
    conn_rates_.push_back(&rate);
  }
  std::vector<HeldChunk> held;
  int idle_ms = 0;
  while (authed && !stopping_.load()) {
    Message msg;
    const support::IoStatus st = recv_message(sock, &msg, kServeSliceMs);
    if (st == support::IoStatus::kTimeout) {
      // Only a connection *holding an assignment* is on a deadline: its
      // silence past the timeout means the worker died wedged (a live one
      // streams a result or keeps the conversation going). Idle clients
      // and between-request workers may sit quiet.
      if (!held.empty()) {
        idle_ms += kServeSliceMs;
        if (idle_ms >= config_.worker_timeout_ms) break;
      }
      continue;
    }
    if (st == support::IoStatus::kClosed) break;
    idle_ms = 0;
    bool keep = false;
    try {
      keep = handle_message(sock, msg, &held, &rate);
    } catch (const support::Error&) {
      keep = false;  // malformed body: protocol violation, drop the peer
    }
    if (!keep) break;
  }
  {
    const std::lock_guard<std::mutex> lock(conns_mu_);
    live_fds_.erase(std::find(live_fds_.begin(), live_fds_.end(), sock.fd()));
    if (authed) std::erase(conn_rates_, &rate);
  }
  reclaim(held);
  {
    // Last act: hand this thread to the reaper. serve() must not touch
    // members after this line — stop() may have already swept the table.
    const std::lock_guard<std::mutex> lock(conns_mu_);
    finished_handlers_.push_back(handler_id);
  }
}

bool Coordinator::handle_message(support::Socket& sock, const Message& msg,
                                 std::vector<HeldChunk>* held,
                                 ConnThroughput* rate) {
  switch (msg.type) {
    case MsgType::kWorkRequest: return handle_work_request(sock, held, rate);
    case MsgType::kChunkResult:
      return handle_chunk_result(sock, msg, held, rate);
    case MsgType::kSubmit: return handle_submit(sock, msg);
    case MsgType::kPoll: return handle_poll(sock, msg);
    case MsgType::kPing:
      // Liveness probe: echo the sequence number back. Also answered by
      // the supervisor on its control channel; a worker talks to both.
      return send_message(sock, MsgType::kPong, msg.body);
    default: return false;  // a peer speaking coordinator-only messages
  }
}

void Coordinator::note_chunk_completed(ConnThroughput* rate) {
  const std::lock_guard<std::mutex> lock(conns_mu_);
  const auto now = std::chrono::steady_clock::now();
  const double dt =
      std::chrono::duration<double>(now - rate->last_event).count();
  rate->last_event = now;
  if (dt <= 0.0) return;  // same-tick completions: keep the old estimate
  const double sample = 1.0 / dt;
  rate->ewma_rate = rate->ewma_rate <= 0.0
                        ? sample
                        : kRateAlpha * sample +
                              (1.0 - kRateAlpha) * rate->ewma_rate;
}

std::uint32_t Coordinator::current_grain(const ConnThroughput* rate) {
  const std::lock_guard<std::mutex> lock(conns_mu_);
  double max_rate = 0.0;
  for (const ConnThroughput* r : conn_rates_) {
    max_rate = std::max(max_rate, r->ewma_rate);
  }
  return scaled_assign_chunks(config_.assign_chunks, rate->ewma_rate,
                              max_rate);
}

bool Coordinator::handle_work_request(support::Socket& sock,
                                      std::vector<HeldChunk>* held,
                                      ConnThroughput* rate) {
  if (stopping_.load() || draining_.load()) {
    return send_message(sock, MsgType::kShutdown, {});
  }
  // Grain first (conns_mu_), then assignment (mu_): the two locks are
  // never held together.
  const std::uint32_t grain = current_grain(rate);
  const auto now = std::chrono::steady_clock::now();
  AssignBody assign;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    // Fair FIFO: always shard from the oldest incomplete campaign; later
    // campaigns only feed workers while earlier ones have nothing left to
    // hand out (their tail chunks in flight elsewhere).
    for (const std::unique_ptr<Campaign>& c : campaigns_) {
      if (c->state == CampaignState::kDone || c->pending.empty()) continue;
      const std::uint32_t take = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(grain, c->pending.size()));
      assign.campaign_id = c->id;
      assign.config = c->config;
      for (std::uint32_t i = 0; i < take; ++i) {
        const std::uint64_t idx = c->pending.front();
        c->pending.pop_front();
        assign.chunks.push_back(idx);
        held->emplace_back(c->id, idx);
        c->inflight[idx] = Inflight{now, 1};
      }
      c->state = CampaignState::kRunning;
      break;
    }
    if (assign.chunks.empty()) {
      speculate_overdue(now, grain, held, &assign);
    }
    counters_.chunks_assigned += assign.chunks.size();
  }
  if (assign.chunks.empty()) {
    return send_message(sock, MsgType::kWait,
                        encode_u32_body(config_.wait_hint_ms));
  }
  return send_message(sock, MsgType::kAssign, encode_assign(assign));
}

// Straggler recovery (requires mu_): with nothing pending anywhere, an
// idle worker is offered duplicate copies of the oldest campaign's
// overdue in-flight chunks. "Overdue" is an age test against a deadline
// derived from that campaign's EWMA service time, floored by
// speculation_min_ms so cold estimates cannot fire; the copy ceiling
// bounds wasted compute. Chosen chunks restart their age clock (the new
// copy is the one now racing the deadline).
void Coordinator::speculate_overdue(std::chrono::steady_clock::time_point now,
                                    std::uint32_t grain,
                                    std::vector<HeldChunk>* held,
                                    AssignBody* assign) {
  for (const std::unique_ptr<Campaign>& c : campaigns_) {
    if (c->state == CampaignState::kDone || c->inflight.empty()) continue;
    const double ewma_ms = c->ewma_service_s * 1000.0;
    const double deadline_ms =
        std::max(static_cast<double>(config_.speculation_min_ms),
                 kSpeculationFactor * ewma_ms);
    std::vector<std::uint64_t> overdue;
    for (const auto& [idx, flight] : c->inflight) {
      if (flight.copies >= kSpeculationMaxCopies) continue;
      const double age_ms =
          std::chrono::duration<double, std::milli>(now - flight.last_assign)
              .count();
      if (age_ms >= deadline_ms) overdue.push_back(idx);
    }
    if (overdue.empty()) continue;
    // Ascending index: deterministic choice order and oldest-work-first
    // (assignment order is ascending, so lower index ≈ longer in flight).
    std::sort(overdue.begin(), overdue.end());
    if (overdue.size() > grain) overdue.resize(grain);
    assign->campaign_id = c->id;
    assign->config = c->config;
    for (std::uint64_t idx : overdue) {
      Inflight& flight = c->inflight[idx];
      ++flight.copies;
      flight.last_assign = now;
      assign->chunks.push_back(idx);
      held->emplace_back(c->id, idx);
      ++counters_.speculative_assigns;
    }
    return;
  }
}

bool Coordinator::handle_chunk_result(support::Socket& sock,
                                      const Message& msg,
                                      std::vector<HeldChunk>* held,
                                      ConnThroughput* rate) {
  ChunkResultBody body = decode_chunk_result(msg.body);
  const std::uint64_t idx = body.result.index;
  bool accept = false;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    Campaign* c = find_campaign(body.campaign_id);
    if (c != nullptr && c->state != CampaignState::kDone) {
      const std::uint64_t begin = idx * campaign::kChunkTrials;
      const std::uint64_t end = std::min(begin + campaign::kChunkTrials,
                                         c->config.trials);
      if (idx >= c->n_chunks || body.result.attempts.size() != end - begin) {
        return false;  // wrong-shaped chunk: protocol violation
      }
      accept = true;
      if (!c->done[idx]) {
        // First copy home wins; feed its assignment→merge latency into
        // the EWMA that prices the speculation deadline, then retire the
        // in-flight entry — a losing copy arrives as a duplicate below.
        const auto it = c->inflight.find(idx);
        if (it != c->inflight.end()) {
          const double service_s =
              std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            it->second.last_assign)
                  .count();
          if (service_s > 0.0) {
            c->ewma_service_s =
                c->ewma_service_s <= 0.0
                    ? service_s
                    : kRateAlpha * service_s +
                          (1.0 - kRateAlpha) * c->ewma_service_s;
          }
          c->inflight.erase(it);
        }
        store_.append(c->fingerprint, body.result);
        c->results[idx] = std::move(body.result);
        c->done[idx] = 1;
        ++c->n_done;
        c->trials_done += end - begin;
        if (c->n_done == c->n_chunks) finalize(c);
      } else {
        // Byte-identical by the determinism contract: acknowledge, don't
        // re-merge.
        ++counters_.duplicate_results;
      }
    }
  }
  std::erase(*held, HeldChunk{body.campaign_id, idx});
  note_chunk_completed(rate);
  if (!accept) {
    // Campaign finished or evaporated (e.g. resumed fully from
    // checkpoint): tell the worker to drop the rest of this range.
    return send_message(sock, MsgType::kAbortAssign, {});
  }
  return send_message(sock, MsgType::kChunkAck, {});
}

bool Coordinator::handle_submit(support::Socket& sock, const Message& msg) {
  campaign::CampaignConfig config;
  try {
    config = decode_submit(msg.body);
  } catch (const support::Error&) {
    return send_message(sock, MsgType::kReject,
                        encode_string_body("malformed campaign spec"));
  }
  if (config.trials == 0 || config.trials > kMaxTrialsPerCampaign) {
    return send_message(
        sock, MsgType::kReject,
        encode_string_body("trials must be in [1, 100000000]"));
  }
  if (draining_.load()) {
    return send_message(sock, MsgType::kReject,
                        encode_string_body("coordinator draining"));
  }
  const support::Bytes canonical = wire::canonical_config(config);
  const std::uint64_t fingerprint = wire::config_fingerprint(config);
  std::uint64_t id = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    // Submit is idempotent over live campaigns: a client retrying after a
    // lost kSubmitAck must land on the campaign its first attempt
    // admitted, not enqueue a sibling. Identity is the exact canonical
    // encoding (the fingerprint is only a prefilter). Completed campaigns
    // are exempt — resubmitting a finished config deliberately runs it
    // again (resumed instantly from checkpoints when enabled).
    for (const std::unique_ptr<Campaign>& c : campaigns_) {
      if (c->state == CampaignState::kDone ||
          c->fingerprint != fingerprint || c->canonical != canonical) {
        continue;
      }
      ++counters_.submits_deduped;
      return send_message(sock, MsgType::kSubmitAck, encode_u64_body(c->id));
    }
    std::size_t incomplete = 0;
    for (const std::unique_ptr<Campaign>& c : campaigns_) {
      incomplete += c->state != CampaignState::kDone ? 1 : 0;
    }
    if (incomplete >= config_.max_queue) {
      return send_message(
          sock, MsgType::kReject,
          encode_string_body("campaign queue full (backpressure)"));
    }
    auto c = std::make_unique<Campaign>();
    c->id = next_campaign_id_++;
    c->config = config;
    c->fingerprint = fingerprint;
    c->canonical = canonical;
    c->n_chunks = campaign::num_chunks(config.trials);
    c->done.assign(c->n_chunks, 0);
    c->results.resize(c->n_chunks);
    // Resume: chunks already in the checkpoint store under this config's
    // fingerprint are merged up front and never rescheduled.
    for (campaign::ChunkResult& r : store_.load(c->fingerprint, c->n_chunks)) {
      const std::uint64_t begin = r.index * campaign::kChunkTrials;
      const std::uint64_t end = std::min(begin + campaign::kChunkTrials,
                                         config.trials);
      if (r.attempts.size() != end - begin) continue;  // stale/odd record
      const std::uint64_t idx = r.index;
      c->results[idx] = std::move(r);
      c->done[idx] = 1;
      ++c->n_done;
      c->trials_done += end - begin;
    }
    for (std::uint64_t i = 0; i < c->n_chunks; ++i) {
      if (!c->done[i]) c->pending.push_back(i);
    }
    if (c->n_done == c->n_chunks) {
      finalize(c.get());
    } else if (c->n_done > 0) {
      c->state = CampaignState::kRunning;
    }
    id = c->id;
    campaigns_.push_back(std::move(c));
  }
  return send_message(sock, MsgType::kSubmitAck, encode_u64_body(id));
}

bool Coordinator::handle_poll(support::Socket& sock, const Message& msg) {
  const std::uint64_t id = decode_u64_body(msg.body);
  StatusBody status;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    Campaign* c = find_campaign(id);
    if (c == nullptr) {
      return send_message(sock, MsgType::kReject,
                          encode_string_body("unknown campaign id"));
    }
    status = status_of(*c);
  }
  // Durability batching point (DESIGN.md §14): everything appended since
  // the last poll reaches the platter before the client sees this status —
  // a client that observed progress N can rely on ≥ N surviving a power
  // cut. Outside mu_ so an fsync stall never blocks chunk results.
  store_.sync();
  return send_message(sock, MsgType::kStatus, encode_status(status));
}

void Coordinator::reclaim(const std::vector<HeldChunk>& held) {
  if (held.empty()) return;
  const std::lock_guard<std::mutex> lock(mu_);
  for (auto it = held.rbegin(); it != held.rend(); ++it) {
    Campaign* c = find_campaign(it->first);
    if (c == nullptr || c->state == CampaignState::kDone) continue;
    if (c->done[it->second]) continue;
    // One live copy (this connection's) is gone. Only when it was the
    // *last* does the chunk re-enter the pending pool — a surviving
    // speculative copy is still racing to deliver it.
    const auto flight = c->inflight.find(it->second);
    if (flight != c->inflight.end() && flight->second.copies > 1) {
      --flight->second.copies;
      continue;
    }
    c->inflight.erase(it->second);
    // Front of the queue (in reverse, preserving ascending order): a
    // died-with-it chunk is the oldest outstanding work.
    c->pending.push_front(it->second);
    ++counters_.chunks_reclaimed;
  }
}

void Coordinator::finalize(Campaign* c) {
  c->final_stats = campaign::merge_chunk_results(c->results);
  c->state = CampaignState::kDone;
  c->results.clear();  // the stats are what clients need from here on
  c->results.shrink_to_fit();
  c->pending.clear();
  c->inflight.clear();
}

Coordinator::Campaign* Coordinator::find_campaign(std::uint64_t id) {
  for (const std::unique_ptr<Campaign>& c : campaigns_) {
    if (c->id == id) return c.get();
  }
  return nullptr;
}

StatusBody Coordinator::status_of(const Campaign& c) {
  StatusBody status;
  status.state = c.state;
  status.chunks_done = c.n_done;
  status.chunks_total = c.n_chunks;
  status.trials_done = c.trials_done;
  status.trials_total = c.config.trials;
  for (const std::unique_ptr<Campaign>& other : campaigns_) {
    if (other->id == c.id) break;
    status.queue_position += other->state != CampaignState::kDone ? 1 : 0;
  }
  if (c.state == CampaignState::kDone) {
    status.stats = c.final_stats;
  } else {
    // Incremental aggregate: merge what's done so far, in index order.
    std::vector<campaign::ChunkResult> partial;
    partial.reserve(c.n_done);
    for (std::uint64_t i = 0; i < c.n_chunks; ++i) {
      if (c.done[i]) partial.push_back(c.results[i]);
    }
    status.stats = campaign::merge_chunk_results(partial);
  }
  return status;
}

}  // namespace mavr::campaignd
