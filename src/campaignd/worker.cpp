#include "campaignd/worker.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <thread>

#include "campaign/scenarios.hpp"
#include "campaignd/protocol.hpp"
#include "firmware/profile.hpp"
#include "support/backoff.hpp"
#include "support/error.hpp"
#include "support/socket.hpp"

namespace mavr::campaignd {

namespace {

/// recv slice so a raised stop flag is noticed quickly mid-wait.
constexpr int kRecvSliceMs = 100;

/// recv_message in stop-aware slices. Returns kTimeout early (without
/// having consumed anything) if `stop` is raised between slices.
support::IoStatus recv_reply(support::Socket& sock, Message* msg,
                             const std::atomic<bool>& stop,
                             int reply_timeout_ms) {
  int waited = 0;
  while (waited < reply_timeout_ms) {
    if (stop.load(std::memory_order_relaxed)) {
      return support::IoStatus::kTimeout;
    }
    const support::IoStatus st = recv_message(
        sock, msg, std::min(kRecvSliceMs, reply_timeout_ms));
    if (st != support::IoStatus::kTimeout) return st;
    waited += kRecvSliceMs;
  }
  return support::IoStatus::kTimeout;
}

/// Sleeps up to `total_ms`, waking within ~kRecvSliceMs of `stop` being
/// raised — an idle worker must honor the responsiveness contract
/// recv_reply gives a busy one.
void interruptible_sleep(std::uint32_t total_ms,
                         const std::atomic<bool>& stop) {
  using Clock = std::chrono::steady_clock;
  const auto deadline = Clock::now() + std::chrono::milliseconds(total_ms);
  while (!stop.load(std::memory_order_relaxed)) {
    const auto left = deadline - Clock::now();
    if (left <= std::chrono::milliseconds::zero()) return;
    std::this_thread::sleep_for(
        std::min<Clock::duration>(left, std::chrono::milliseconds(
                                            kRecvSliceMs)));
  }
}

}  // namespace

std::uint64_t run_worker(const std::string& endpoint,
                         const WorkerOptions& options) {
  std::uint64_t completed = 0;
  static const std::atomic<bool> kNeverStop{false};
  const std::atomic<bool>& stop = options.stop ? *options.stop : kNeverStop;
  const auto ep = support::parse_endpoint(endpoint);
  if (!ep) return completed;  // malformed spec: nothing to connect to
  // One firmware generate+link, shared across campaigns: every board
  // scenario attacks the same stock testapp build.
  std::optional<campaign::SimFixture> fixture;
  // Paces every reconnect: full-jitter exponential ladder, climbed on each
  // refused connect and each broken connection, reset by a completed
  // handshake.
  support::Backoff reconnect(options.reconnect_backoff_ms,
                             options.reconnect_backoff_max_ms,
                             options.backoff_seed);
  int refused = 0;  // consecutive refused connects

  while (!stop.load()) {
    support::Socket sock = support::connect_endpoint(*ep);
    if (!sock.valid()) {
      if (++refused >= options.connect_attempts) {
        return completed;  // coordinator is gone for good
      }
      interruptible_sleep(
          static_cast<std::uint32_t>(reconnect.next_delay_ms()), stop);
      continue;
    }
    refused = 0;
    if (options.fault_plane != nullptr) options.fault_plane->arm(sock);

    switch (client_handshake(sock, options.auth_token,
                             options.reply_timeout_ms)) {
      case HandshakeResult::kOk:
        reconnect.reset();
        break;
      case HandshakeResult::kRejected:
        // Wrong token or version: reconnecting cannot fix it.
        return completed;
      case HandshakeResult::kTransport:
        // Connection died mid-handshake: back off, retry from connect.
        interruptible_sleep(
            static_cast<std::uint32_t>(reconnect.next_delay_ms()), stop);
        continue;
    }

    bool conn_ok = true;
    while (conn_ok && !stop.load()) {
      if (options.max_chunks != 0 && completed >= options.max_chunks) {
        return completed;  // "die" here; held chunks get reassigned
      }
      if (options.stall_after_chunks != 0 &&
          completed >= options.stall_after_chunks) {
        // Straggler model: wedge with the connection open — the chunk it
        // would have run next must come back via speculation or the
        // coordinator's assignment timeout, not via reclaim-on-close.
        while (!stop.load()) interruptible_sleep(1'000, stop);
        return completed;
      }
      if (!send_message(sock, MsgType::kWorkRequest, {})) break;
      Message msg;
      if (recv_reply(sock, &msg, stop, options.reply_timeout_ms) !=
          support::IoStatus::kOk) {
        break;
      }

      try {
      switch (msg.type) {
        case MsgType::kShutdown:
          return completed;
        case MsgType::kWait: {
          const std::uint32_t hint_ms = decode_u32_body(msg.body);
          interruptible_sleep(std::min<std::uint32_t>(hint_ms, 500), stop);
          break;
        }
        case MsgType::kAssign: {
          const AssignBody assign = decode_assign(msg.body);
          if (scenario_uses_board(assign.config.scenario) && !fixture) {
            fixture = campaign::make_sim_fixture(
                firmware::testapp(/*vulnerable=*/true));
          }
          const campaign::TrialFn fn = campaign::make_trial_fn(
              assign.config, fixture ? &*fixture : nullptr);
          for (std::uint64_t idx : assign.chunks) {
            if (stop.load()) return completed;
            if (options.stall_after_chunks != 0 &&
                completed >= options.stall_after_chunks) {
              // Wedge *holding the rest of this range*: these chunks are
              // in flight at the coordinator and only speculation or the
              // assignment timeout can recover them while we sit here.
              while (!stop.load()) interruptible_sleep(1'000, stop);
              return completed;
            }
            std::vector<campaign::ChunkResult> chunk =
                campaign::run_chunk_range(assign.config, fn, idx, idx + 1,
                                          &stop);
            if (chunk.empty()) return completed;  // aborted mid-chunk
            ChunkResultBody body;
            body.campaign_id = assign.campaign_id;
            body.result = std::move(chunk.front());
            if (!send_message(sock, MsgType::kChunkResult,
                              encode_chunk_result(body))) {
              conn_ok = false;
              break;
            }
            Message reply;
            if (recv_reply(sock, &reply, stop, options.reply_timeout_ms) !=
                support::IoStatus::kOk) {
              conn_ok = false;
              break;
            }
            if (reply.type == MsgType::kAbortAssign) {
              break;  // campaign is done/gone; drop the rest of this range
            }
            if (reply.type != MsgType::kChunkAck) {
              conn_ok = false;  // protocol violation
              break;
            }
            ++completed;
            if (options.max_chunks != 0 && completed >= options.max_chunks) {
              return completed;
            }
          }
          break;
        }
        default:
          conn_ok = false;  // coordinator spoke a client-only message
          break;
      }
      } catch (const support::Error&) {
        conn_ok = false;  // malformed reply body: drop the connection
      }
    }
    // Connection died: back off (jittered, exponential in consecutive
    // breaks) and try to re-establish it.
    interruptible_sleep(static_cast<std::uint32_t>(reconnect.next_delay_ms()),
                        stop);
  }
  return completed;
}

}  // namespace mavr::campaignd
