#include "campaignd/client.hpp"

#include <chrono>
#include <thread>

#include "support/backoff.hpp"
#include "support/error.hpp"
#include "support/socket.hpp"

namespace mavr::campaignd {

namespace {

/// One handshake + request/reply exchange on a fresh connection. Returns
/// false (with `*error` set) on any failure; `*retryable` distinguishes
/// transient transport loss (worth backing off and retrying) from a
/// permanent rejection (wrong token/version — retrying cannot help).
bool request(const std::string& endpoint, const ClientOptions& options,
             MsgType type, const support::Bytes& body, Message* reply,
             std::string* error, bool* retryable) {
  *retryable = false;
  const auto ep = support::parse_endpoint(endpoint);
  if (!ep) {
    *error = "malformed endpoint: " + endpoint;
    return false;
  }
  support::Socket sock = support::connect_endpoint(*ep);
  if (!sock.valid()) {
    *error = "cannot connect to coordinator at " + endpoint;
    *retryable = true;
    return false;
  }
  if (options.fault_plane != nullptr) options.fault_plane->arm(sock);
  std::string reject_reason;
  switch (client_handshake(sock, options.auth_token, options.reply_timeout_ms,
                           &reject_reason)) {
    case HandshakeResult::kOk:
      break;
    case HandshakeResult::kRejected:
      *error = "handshake rejected: " + reject_reason;
      return false;  // permanent: same token fails the same way next time
    case HandshakeResult::kTransport:
      *error = "coordinator closed the connection during handshake";
      *retryable = true;
      return false;
  }
  if (!send_message(sock, type, body)) {
    *error = "send to coordinator failed";
    *retryable = true;
    return false;
  }
  if (recv_message(sock, reply, options.reply_timeout_ms) !=
      support::IoStatus::kOk) {
    *error = "coordinator closed the connection or timed out";
    *retryable = true;
    return false;
  }
  return true;
}

/// request() wrapped in the retry ladder: up to max_retries extra
/// attempts across *transport* failures (a refused connect included),
/// full-jitter backoff between.
bool request_with_retries(const std::string& endpoint,
                          const ClientOptions& options, MsgType type,
                          const support::Bytes& body, Message* reply,
                          std::string* error) {
  support::Backoff backoff(options.retry_backoff_ms,
                           options.retry_backoff_max_ms, options.retry_seed);
  for (int attempt = 0;; ++attempt) {
    bool retryable = false;
    if (request(endpoint, options, type, body, reply, error, &retryable)) {
      return true;
    }
    if (!retryable || attempt >= options.max_retries) return false;
    std::this_thread::sleep_for(
        std::chrono::milliseconds(backoff.next_delay_ms()));
  }
}

}  // namespace

SubmitOutcome submit_campaign(const std::string& endpoint,
                              const campaign::CampaignConfig& config,
                              const ClientOptions& options) {
  SubmitOutcome out;
  Message reply;
  // Retrying a submit whose kSubmitAck was lost is safe: the coordinator
  // deduplicates live campaigns by canonical config, so the retry returns
  // the id the first attempt admitted.
  if (!request_with_retries(endpoint, options, MsgType::kSubmit,
                            encode_submit(config), &reply, &out.error)) {
    return out;
  }
  try {
    if (reply.type == MsgType::kSubmitAck) {
      out.campaign_id = decode_u64_body(reply.body);
      out.ok = true;
    } else if (reply.type == MsgType::kReject) {
      out.error = "rejected: " + decode_string_body(reply.body);
    } else {
      out.error = "unexpected reply to submit";
    }
  } catch (const support::Error& e) {
    out.error = std::string("malformed submit reply: ") + e.what();
  }
  return out;
}

PollOutcome poll_campaign(const std::string& endpoint,
                          std::uint64_t campaign_id,
                          const ClientOptions& options) {
  PollOutcome out;
  Message reply;
  if (!request_with_retries(endpoint, options, MsgType::kPoll,
                            encode_u64_body(campaign_id), &reply,
                            &out.error)) {
    return out;
  }
  try {
    if (reply.type == MsgType::kStatus) {
      out.status = decode_status(reply.body);
      out.ok = true;
    } else if (reply.type == MsgType::kReject) {
      out.error = "rejected: " + decode_string_body(reply.body);
    } else {
      out.error = "unexpected reply to poll";
    }
  } catch (const support::Error& e) {
    out.error = std::string("malformed poll reply: ") + e.what();
  }
  return out;
}

PollOutcome wait_campaign(const std::string& endpoint,
                          std::uint64_t campaign_id,
                          const ClientOptions& options, int interval_ms,
                          int timeout_ms) {
  // Each poll already carries the per-operation retry ladder; on top the
  // wait loop tolerates `max_retries` *consecutive* failed polls before
  // abandoning the campaign, resetting on every success — a coordinator
  // restart mid-campaign costs polls, never the wait. Nothing else needs
  // resuming: the next successful poll returns the full incremental
  // aggregate (chunks merged so far), because status is coordinator-side
  // state, not a client-side stream.
  int waited_ms = 0;
  int consecutive_failures = 0;
  for (;;) {
    PollOutcome out = poll_campaign(endpoint, campaign_id, options);
    if (out.ok) {
      consecutive_failures = 0;
      if (out.status.state == CampaignState::kDone) return out;
    } else {
      ++consecutive_failures;
      if (consecutive_failures > options.max_retries) return out;
    }
    if (timeout_ms >= 0 && waited_ms >= timeout_ms) {
      out.ok = false;
      out.error = "timed out waiting for campaign to finish";
      return out;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    waited_ms += interval_ms;
  }
}

}  // namespace mavr::campaignd
