#include "campaignd/protocol.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <random>

#include "support/crc.hpp"
#include "support/error.hpp"

namespace mavr::campaignd {

namespace {

namespace wire = campaign::wire;

/// Payload read deadline once a header has arrived: generous (the peer
/// already committed to a frame) but bounded, so a stalled peer cannot
/// pin a handler thread forever.
constexpr int kPayloadTimeoutMs = 10'000;

}  // namespace

bool send_message(support::Socket& sock, MsgType type,
                  std::span<const std::uint8_t> body) {
  support::Bytes payload;
  payload.reserve(body.size() + 2);
  payload.push_back(wire::kWireVersion);
  payload.push_back(static_cast<std::uint8_t>(type));
  payload.insert(payload.end(), body.begin(), body.end());
  if (payload.size() > kMaxFrameBytes) return false;

  support::Bytes frame;
  support::put_frame(frame, payload);
  return sock.send_all(frame);
}

support::IoStatus recv_message(support::Socket& sock, Message* out,
                               int timeout_ms) {
  std::uint8_t header[support::kFrameHeaderBytes];
  const support::IoStatus hs = sock.recv_exact(header, sizeof header,
                                               timeout_ms);
  if (hs != support::IoStatus::kOk) return hs;
  // The cap is checked before the payload is allocated.
  const support::FrameHeader h = support::read_frame_header(header);
  if (h.len < 2 || h.len > kMaxFrameBytes) return support::IoStatus::kClosed;

  support::Bytes payload(h.len);
  if (sock.recv_exact(payload.data(), h.len, kPayloadTimeoutMs) !=
      support::IoStatus::kOk) {
    return support::IoStatus::kClosed;
  }
  if (support::crc32_ieee(payload) != h.crc) {
    return support::IoStatus::kClosed;
  }
  if (payload[0] != wire::kWireVersion) return support::IoStatus::kClosed;
  const std::uint8_t type = payload[1];
  if (type < static_cast<std::uint8_t>(MsgType::kWorkRequest) ||
      type > static_cast<std::uint8_t>(MsgType::kPong)) {
    return support::IoStatus::kClosed;
  }
  out->type = static_cast<MsgType>(type);
  out->body.assign(payload.begin() + 2, payload.end());
  return support::IoStatus::kOk;
}

support::Bytes encode_assign(const AssignBody& body) {
  support::Bytes out;
  support::ByteWriter w(out);
  wire::put_u64(w, body.campaign_id);
  wire::encode_config(w, body.config);
  w.u32_le(static_cast<std::uint32_t>(body.chunks.size()));
  for (std::uint64_t c : body.chunks) wire::put_u64(w, c);
  return out;
}

AssignBody decode_assign(const support::Bytes& body) {
  support::ByteReader r(body);
  AssignBody out;
  out.campaign_id = wire::get_u64(r);
  out.config = wire::decode_config(r);
  const std::uint32_t count = r.u32_le();
  if (count > campaign::num_chunks(out.config.trials)) {
    throw support::DataError("assign: more chunks than the campaign has");
  }
  out.chunks.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    out.chunks.push_back(wire::get_u64(r));
  }
  MAVR_REQUIRE(r.done(), "assign: trailing bytes");
  return out;
}

support::Bytes encode_chunk_result(const ChunkResultBody& body) {
  support::Bytes out;
  support::ByteWriter w(out);
  wire::put_u64(w, body.campaign_id);
  wire::encode_chunk_result(w, body.result);
  return out;
}

ChunkResultBody decode_chunk_result(const support::Bytes& body) {
  support::ByteReader r(body);
  ChunkResultBody out;
  out.campaign_id = wire::get_u64(r);
  out.result = wire::decode_chunk_result(r);
  MAVR_REQUIRE(r.done(), "chunk result: trailing bytes");
  return out;
}

support::Bytes encode_status(const StatusBody& body) {
  support::Bytes out;
  support::ByteWriter w(out);
  w.u8(static_cast<std::uint8_t>(body.state));
  wire::put_u64(w, body.chunks_done);
  wire::put_u64(w, body.chunks_total);
  wire::put_u64(w, body.trials_done);
  wire::put_u64(w, body.trials_total);
  wire::put_u64(w, body.queue_position);
  wire::encode_stats(w, body.stats);
  return out;
}

StatusBody decode_status(const support::Bytes& body) {
  support::ByteReader r(body);
  StatusBody out;
  const std::uint8_t state = r.u8();
  if (state > static_cast<std::uint8_t>(CampaignState::kDone)) {
    throw support::DataError("status: unknown campaign state");
  }
  out.state = static_cast<CampaignState>(state);
  out.chunks_done = wire::get_u64(r);
  out.chunks_total = wire::get_u64(r);
  out.trials_done = wire::get_u64(r);
  out.trials_total = wire::get_u64(r);
  out.queue_position = wire::get_u64(r);
  out.stats = wire::decode_stats(r);
  MAVR_REQUIRE(r.done(), "status: trailing bytes");
  return out;
}

support::Bytes encode_u64_body(std::uint64_t value) {
  support::Bytes out;
  support::ByteWriter w(out);
  wire::put_u64(w, value);
  return out;
}

std::uint64_t decode_u64_body(const support::Bytes& body) {
  support::ByteReader r(body);
  const std::uint64_t value = wire::get_u64(r);
  MAVR_REQUIRE(r.done(), "u64 body: trailing bytes");
  return value;
}

support::Bytes encode_u32_body(std::uint32_t value) {
  support::Bytes out;
  support::ByteWriter w(out);
  w.u32_le(value);
  return out;
}

std::uint32_t decode_u32_body(const support::Bytes& body) {
  support::ByteReader r(body);
  const std::uint32_t value = r.u32_le();
  MAVR_REQUIRE(r.done(), "u32 body: trailing bytes");
  return value;
}

support::Bytes encode_string_body(const std::string& text) {
  return support::Bytes(text.begin(), text.end());
}

std::string decode_string_body(const support::Bytes& body) {
  return std::string(body.begin(), body.end());
}

support::Bytes encode_submit(const campaign::CampaignConfig& config) {
  support::Bytes out;
  support::ByteWriter w(out);
  wire::encode_config(w, config);
  return out;
}

campaign::CampaignConfig decode_submit(const support::Bytes& body) {
  support::ByteReader r(body);
  const campaign::CampaignConfig config = wire::decode_config(r);
  MAVR_REQUIRE(r.done(), "submit: trailing bytes");
  return config;
}

support::Bytes encode_hello(const HelloBody& body) {
  support::Bytes out;
  support::ByteWriter w(out);
  w.u8(body.protocol_version);
  wire::put_u64(w, body.peer_nonce);
  return out;
}

HelloBody decode_hello(const support::Bytes& body) {
  support::ByteReader r(body);
  HelloBody out;
  out.protocol_version = r.u8();
  out.peer_nonce = wire::get_u64(r);
  MAVR_REQUIRE(r.done(), "hello: trailing bytes");
  return out;
}

support::Bytes encode_mac_body(const support::Sha256Digest& mac) {
  return support::Bytes(mac.begin(), mac.end());
}

support::Sha256Digest decode_mac_body(const support::Bytes& body) {
  support::Sha256Digest mac;
  if (body.size() != mac.size()) {
    throw support::DataError("auth mac: wrong length");
  }
  std::copy(body.begin(), body.end(), mac.begin());
  return mac;
}

namespace {

support::Sha256Digest auth_mac(const char* context, const std::string& token,
                               std::uint64_t first_nonce,
                               std::uint64_t second_nonce) {
  support::Bytes msg;
  support::ByteWriter w(msg);
  w.bytes(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(context), std::strlen(context)));
  wire::put_u64(w, first_nonce);
  wire::put_u64(w, second_nonce);
  return support::hmac_sha256(
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(token.data()), token.size()),
      msg);
}

}  // namespace

support::Sha256Digest auth_mac_peer(const std::string& token,
                                    std::uint64_t server_nonce,
                                    std::uint64_t peer_nonce) {
  return auth_mac("mavr-campaignd/peer/v2", token, server_nonce, peer_nonce);
}

support::Sha256Digest auth_mac_coordinator(const std::string& token,
                                           std::uint64_t server_nonce,
                                           std::uint64_t peer_nonce) {
  return auth_mac("mavr-campaignd/coord/v2", token, peer_nonce, server_nonce);
}

std::uint64_t fresh_nonce() {
  // random_device twice: one call may be only 32 bits of entropy.
  std::random_device rd;
  std::uint64_t hi = rd();
  std::uint64_t lo = rd();
  return (hi << 32) ^ lo ^
         static_cast<std::uint64_t>(
             std::chrono::steady_clock::now().time_since_epoch().count());
}

HandshakeResult client_handshake(support::Socket& sock,
                                 const std::string& token, int timeout_ms,
                                 std::string* reject_reason) {
  HelloBody hello;
  hello.peer_nonce = fresh_nonce();
  if (!send_message(sock, MsgType::kHello, encode_hello(hello))) {
    return HandshakeResult::kTransport;
  }
  Message msg;
  if (recv_message(sock, &msg, timeout_ms) != support::IoStatus::kOk) {
    return HandshakeResult::kTransport;
  }
  try {
    if (msg.type == MsgType::kReject) {
      if (reject_reason != nullptr) {
        *reject_reason = decode_string_body(msg.body);
      }
      return HandshakeResult::kRejected;
    }
    if (msg.type != MsgType::kChallenge) return HandshakeResult::kTransport;
    const std::uint64_t server_nonce = decode_u64_body(msg.body);
    const support::Sha256Digest mac =
        auth_mac_peer(token, server_nonce, hello.peer_nonce);
    if (!send_message(sock, MsgType::kAuth, encode_mac_body(mac))) {
      return HandshakeResult::kTransport;
    }
    if (recv_message(sock, &msg, timeout_ms) != support::IoStatus::kOk) {
      return HandshakeResult::kTransport;
    }
    if (msg.type == MsgType::kReject) {
      if (reject_reason != nullptr) {
        *reject_reason = decode_string_body(msg.body);
      }
      return HandshakeResult::kRejected;
    }
    if (msg.type != MsgType::kHelloOk) return HandshakeResult::kTransport;
    // Mutual: the coordinator must prove the token over *our* nonce, or a
    // rogue listener could hand this worker garbage assignments.
    const support::Sha256Digest expected =
        auth_mac_coordinator(token, server_nonce, hello.peer_nonce);
    if (!support::digest_equal(decode_mac_body(msg.body), expected)) {
      if (reject_reason != nullptr) {
        *reject_reason = "coordinator failed token proof";
      }
      return HandshakeResult::kRejected;
    }
  } catch (const support::Error&) {
    return HandshakeResult::kTransport;  // malformed reply body
  }
  return HandshakeResult::kOk;
}

bool read_token_file(const std::string& path, std::string* token) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::getline(in, *token);
  while (!token->empty() &&
         (token->back() == '\r' || token->back() == '\n')) {
    token->pop_back();
  }
  return true;
}

}  // namespace mavr::campaignd
