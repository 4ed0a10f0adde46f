// Wire encoding for campaign data that crosses a process boundary: the
// campaignd coordinator ships CampaignConfig to workers, workers ship
// ChunkResult accumulators back, the checkpoint store persists them, and
// status replies carry CampaignStats to polling clients.
//
// Everything is fixed-width little-endian; doubles travel as their IEEE-754
// bit patterns (std::bit_cast through u64), so a value decodes to exactly
// the bits that were encoded — the determinism contract ("bit-identical
// stats at any worker count") survives serialization by construction.
// Decoders validate enums and lengths and throw support::DataError (or the
// ByteReader's PreconditionError) on malformed input; transport layers
// treat any support::Error as a corrupt frame.
#pragma once

#include <cstdint>

#include "campaign/campaign.hpp"
#include "support/bytes.hpp"

namespace mavr::campaign::wire {

/// Bumped whenever any encoding below changes shape. Framed into every
/// campaignd message and checkpoint record, so a stale peer or store is
/// rejected instead of misparsed.
/// v2: CampaignConfig gained the analyze-sweep scenario tag and the
/// analyze_policy flag.
/// v3: CampaignConfig gained the exec_tier flag (superblock tier on/off).
inline constexpr std::uint8_t kWireVersion = 3;

// Primitive helpers shared by the campaignd protocol and checkpoint store.
void put_u64(support::ByteWriter& w, std::uint64_t v);
std::uint64_t get_u64(support::ByteReader& r);
void put_f64(support::ByteWriter& w, double v);
double get_f64(support::ByteReader& r);

// CampaignConfig. `jobs` is deliberately not encoded (mirroring the
// exporters): it is an execution detail of one process, and the service's
// parallelism is its worker count. Decoded configs come back with jobs=1.
void encode_config(support::ByteWriter& w, const CampaignConfig& config);
CampaignConfig decode_config(support::ByteReader& r);

void encode_chunk_accum(support::ByteWriter& w, const ChunkAccum& accum);
ChunkAccum decode_chunk_accum(support::ByteReader& r);

void encode_chunk_result(support::ByteWriter& w, const ChunkResult& result);
ChunkResult decode_chunk_result(support::ByteReader& r);

void encode_stats(support::ByteWriter& w, const CampaignStats& stats);
CampaignStats decode_stats(support::ByteReader& r);

/// Canonical byte identity of a config: version-prefixed encoding with
/// jobs excluded. Two configs produce the same bytes iff every
/// result-affecting field matches — the coordinator compares these
/// directly when deduplicating retried submits (a fingerprint match alone
/// could, in principle, collide).
support::Bytes canonical_config(const CampaignConfig& config);

/// 64-bit FNV-1a over canonical_config: the identity of a campaign for
/// checkpoint matching.
std::uint64_t config_fingerprint(const CampaignConfig& config);

}  // namespace mavr::campaign::wire
