// campaignd wire protocol: length-prefixed, CRC-32-framed messages over an
// AF_UNIX stream (DESIGN.md §12).
//
// Frame layout (support/crc.hpp's record frame, which the checkpoint log
// and the analysis cache share):
//   u32  payload length (little-endian, bounded by kMaxFrameBytes)
//   u32  CRC-32/ISO-HDLC of the payload (the same polynomial the reflash
//        pipeline uses to frame firmware containers)
//   payload = [u8 wire version][u8 MsgType][typed body]
// A length, CRC, or version mismatch is indistinguishable from a torn
// stream, so receivers report it as kClosed and the connection is dropped —
// corruption never silently merges a wrong chunk into a campaign.
//
// Conversation shapes (one request, one reply; the coordinator never sends
// unsolicited frames):
//   handshake (first, on every connection):
//            kHello       → kChallenge | kReject
//            kAuth        → kHelloOk   | kReject
//   worker:  kWorkRequest → kAssign | kWait | kShutdown
//            kChunkResult → kChunkAck | kAbortAssign
//   client:  kSubmit      → kSubmitAck | kReject
//            kPoll        → kStatus    | kReject
//
// The handshake exists because the TCP transport (DESIGN.md §13) has no
// filesystem permissions guarding the listener: the peer proves knowledge
// of the coordinator's shared token by answering a fresh nonce with
// HMAC-SHA-256(token, context || nonces) before any campaign state is
// touched, and the coordinator proves the same over the peer's nonce in
// kHelloOk (a rogue listener cannot feed workers bogus work). Distinct
// context strings on the two directions prevent reflection. With an empty
// token (the AF_UNIX default) the exchange still runs — it carries the
// protocol version check — and any peer presenting a token is rejected.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/wire.hpp"
#include "support/bytes.hpp"
#include "support/sha256.hpp"
#include "support/socket.hpp"

namespace mavr::campaignd {

/// Hard ceiling on one frame. A chunk result is ~600 bytes; this bound
/// exists so a corrupt length field cannot provoke a giant allocation.
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 20;

enum class MsgType : std::uint8_t {
  // worker ↔ coordinator
  kWorkRequest = 1,  ///< worker: idle, give me chunks
  kAssign = 2,       ///< coordinator: run these chunk indices
  kWait = 3,         ///< coordinator: no work; re-poll after a delay
  kShutdown = 4,     ///< coordinator: draining, exit your loop
  kChunkResult = 5,  ///< worker: one completed chunk
  kChunkAck = 6,     ///< coordinator: result recorded, keep going
  kAbortAssign = 7,  ///< coordinator: campaign gone, abandon the range
  // client ↔ coordinator
  kSubmit = 8,     ///< client: new campaign spec
  kSubmitAck = 9,  ///< coordinator: admitted, here is its id
  kReject = 10,    ///< coordinator: refused (backpressure, bad spec, ...)
  kPoll = 11,      ///< client: status of campaign id
  kStatus = 12,    ///< coordinator: state + incremental aggregates
  // handshake (either peer kind ↔ coordinator)
  kHello = 13,      ///< peer: protocol version + its nonce
  kChallenge = 14,  ///< coordinator: the nonce the peer must answer
  kAuth = 15,       ///< peer: HMAC over the coordinator's nonce
  kHelloOk = 16,    ///< coordinator: accepted + HMAC over the peer's nonce
  // liveness (worker ↔ supervisor / coordinator)
  kPing = 17,  ///< peer: liveness probe (u64 sequence number)
  kPong = 18,  ///< supervisor/coordinator: echo of the probe's sequence
};

/// Version of the *conversation* (handshake shape, message set). Distinct
/// from campaign::wire::kWireVersion, which versions the typed encodings;
/// both are checked — the wire version on every frame, the protocol
/// version once in kHello.
inline constexpr std::uint8_t kProtocolVersion = 2;

struct Message {
  MsgType type = MsgType::kWorkRequest;
  support::Bytes body;
};

/// Frames and sends one message; false when the peer is gone.
bool send_message(support::Socket& sock, MsgType type,
                  std::span<const std::uint8_t> body);

/// Receives one full frame. kTimeout when no frame started before the
/// deadline; kClosed on EOF, desync, CRC/version mismatch, or oversized
/// length.
support::IoStatus recv_message(support::Socket& sock, Message* out,
                               int timeout_ms);

// --- typed bodies -------------------------------------------------------
// Decoders throw support::Error on malformed input; connection handlers
// treat that as a protocol violation and drop the peer.

struct AssignBody {
  std::uint64_t campaign_id = 0;
  campaign::CampaignConfig config;
  std::vector<std::uint64_t> chunks;  ///< chunk indices, ascending
};
support::Bytes encode_assign(const AssignBody& body);
AssignBody decode_assign(const support::Bytes& body);

struct ChunkResultBody {
  std::uint64_t campaign_id = 0;
  campaign::ChunkResult result;
};
support::Bytes encode_chunk_result(const ChunkResultBody& body);
ChunkResultBody decode_chunk_result(const support::Bytes& body);

enum class CampaignState : std::uint8_t {
  kQueued = 0,   ///< admitted, no chunk assigned yet
  kRunning = 1,  ///< at least one chunk assigned or completed
  kDone = 2,     ///< every chunk merged; stats are final
};

struct StatusBody {
  CampaignState state = CampaignState::kQueued;
  std::uint64_t chunks_done = 0;
  std::uint64_t chunks_total = 0;
  std::uint64_t trials_done = 0;
  std::uint64_t trials_total = 0;
  /// Incomplete campaigns admitted before this one (0 = at the head).
  std::uint64_t queue_position = 0;
  /// Merge of the chunks completed so far — the incremental aggregate a
  /// polling client streams; equal to the final stats once state is kDone.
  campaign::CampaignStats stats;
};
support::Bytes encode_status(const StatusBody& body);
StatusBody decode_status(const support::Bytes& body);

// Single-value bodies: kSubmitAck/kPoll (u64 id), kWait (u32 ms),
// kReject (reason string).
support::Bytes encode_u64_body(std::uint64_t value);
std::uint64_t decode_u64_body(const support::Bytes& body);
support::Bytes encode_u32_body(std::uint32_t value);
std::uint32_t decode_u32_body(const support::Bytes& body);
support::Bytes encode_string_body(const std::string& text);
std::string decode_string_body(const support::Bytes& body);

support::Bytes encode_submit(const campaign::CampaignConfig& config);
campaign::CampaignConfig decode_submit(const support::Bytes& body);

// --- handshake ----------------------------------------------------------

struct HelloBody {
  std::uint8_t protocol_version = kProtocolVersion;
  std::uint64_t peer_nonce = 0;  ///< the peer's freshness for kHelloOk
};
support::Bytes encode_hello(const HelloBody& body);
HelloBody decode_hello(const support::Bytes& body);

/// kAuth / kHelloOk bodies: a raw 32-byte HMAC-SHA-256.
support::Bytes encode_mac_body(const support::Sha256Digest& mac);
support::Sha256Digest decode_mac_body(const support::Bytes& body);

/// The MAC a peer sends in kAuth: HMAC(token, "peer" ctx || server nonce
/// || peer nonce).
support::Sha256Digest auth_mac_peer(const std::string& token,
                                    std::uint64_t server_nonce,
                                    std::uint64_t peer_nonce);
/// The MAC the coordinator sends in kHelloOk: HMAC(token, "coord" ctx ||
/// peer nonce || server nonce).
support::Sha256Digest auth_mac_coordinator(const std::string& token,
                                           std::uint64_t server_nonce,
                                           std::uint64_t peer_nonce);

/// A nonce for the challenge: non-deterministic by design (handshake
/// freshness must not repeat across runs, unlike campaign results).
std::uint64_t fresh_nonce();

enum class HandshakeResult {
  kOk,        ///< authenticated; the conversation may proceed
  kRejected,  ///< coordinator said kReject — wrong token/version; permanent
  kTransport, ///< connection died mid-handshake; retrying may help
};

/// Runs the peer side of the handshake (kHello → kChallenge → kAuth →
/// kHelloOk) on a fresh connection, verifying the coordinator's kHelloOk
/// proof. `reject_reason` (optional) receives the kReject text.
HandshakeResult client_handshake(support::Socket& sock,
                                 const std::string& token, int timeout_ms,
                                 std::string* reject_reason = nullptr);

/// Reads the shared handshake token from an `--auth-token-file`: the
/// file's first line, without its trailing newline or CR. false when the
/// file cannot be read.
bool read_token_file(const std::string& path, std::string* token);

}  // namespace mavr::campaignd
