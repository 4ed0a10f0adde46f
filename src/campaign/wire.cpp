#include "campaign/wire.hpp"

#include <bit>

#include "support/error.hpp"

namespace mavr::campaign::wire {

void put_u64(support::ByteWriter& w, std::uint64_t v) {
  w.u32_le(static_cast<std::uint32_t>(v & 0xFFFFFFFFu));
  w.u32_le(static_cast<std::uint32_t>(v >> 32));
}

std::uint64_t get_u64(support::ByteReader& r) {
  const std::uint64_t lo = r.u32_le();
  const std::uint64_t hi = r.u32_le();
  return lo | (hi << 32);
}

void put_f64(support::ByteWriter& w, double v) {
  put_u64(w, std::bit_cast<std::uint64_t>(v));
}

double get_f64(support::ByteReader& r) {
  return std::bit_cast<double>(get_u64(r));
}

void encode_config(support::ByteWriter& w, const CampaignConfig& config) {
  w.u8(static_cast<std::uint8_t>(config.scenario));
  put_u64(w, config.trials);
  put_u64(w, config.seed);
  w.u32_le(config.n_functions);
  put_u64(w, config.warmup_cycles);
  put_u64(w, config.slice_cycles);
  w.u32_le(config.attack_slices);
  put_u64(w, config.watchdog_timeout_cycles);
  put_f64(w, config.fault_rate);
  w.u32_le(static_cast<std::uint32_t>(config.detectors));
  w.u8(static_cast<std::uint8_t>(config.detect_attack));
  w.u8(config.detect_randomize ? 1 : 0);
  w.u8(config.analyze_policy ? 1 : 0);
  w.u8(config.exec_tier ? 1 : 0);
}

CampaignConfig decode_config(support::ByteReader& r) {
  CampaignConfig config;
  const std::uint8_t scenario = r.u8();
  if (scenario > static_cast<std::uint8_t>(Scenario::kAnalyzeSweep)) {
    throw support::DataError("wire: unknown scenario tag");
  }
  config.scenario = static_cast<Scenario>(scenario);
  config.trials = get_u64(r);
  config.seed = get_u64(r);
  config.n_functions = r.u32_le();
  config.warmup_cycles = get_u64(r);
  config.slice_cycles = get_u64(r);
  config.attack_slices = r.u32_le();
  config.watchdog_timeout_cycles = get_u64(r);
  config.fault_rate = get_f64(r);
  config.detectors = r.u32_le();
  const std::uint8_t attack = r.u8();
  if (attack > static_cast<std::uint8_t>(DetectAttack::kV3)) {
    throw support::DataError("wire: unknown detect-attack tag");
  }
  config.detect_attack = static_cast<DetectAttack>(attack);
  config.detect_randomize = r.u8() != 0;
  config.analyze_policy = r.u8() != 0;
  config.exec_tier = r.u8() != 0;
  config.jobs = 1;  // execution detail, not part of the wire identity
  return config;
}

void encode_chunk_accum(support::ByteWriter& w, const ChunkAccum& accum) {
  put_f64(w, accum.sum_attempts);
  put_f64(w, accum.max_attempts);
  put_f64(w, accum.sum_startup_ms);
  put_f64(w, accum.sum_ttd_cycles);
  put_u64(w, accum.cycles);
  put_u64(w, accum.successes);
  put_u64(w, accum.detections);
  put_u64(w, accum.degradations);
  put_u64(w, accum.detector_trips);
}

ChunkAccum decode_chunk_accum(support::ByteReader& r) {
  ChunkAccum accum;
  accum.sum_attempts = get_f64(r);
  accum.max_attempts = get_f64(r);
  accum.sum_startup_ms = get_f64(r);
  accum.sum_ttd_cycles = get_f64(r);
  accum.cycles = get_u64(r);
  accum.successes = get_u64(r);
  accum.detections = get_u64(r);
  accum.degradations = get_u64(r);
  accum.detector_trips = get_u64(r);
  return accum;
}

void encode_chunk_result(support::ByteWriter& w, const ChunkResult& result) {
  MAVR_REQUIRE(result.attempts.size() <= kChunkTrials,
               "chunk carries more attempts than its trial budget");
  put_u64(w, result.index);
  encode_chunk_accum(w, result.accum);
  w.u32_le(static_cast<std::uint32_t>(result.attempts.size()));
  for (double a : result.attempts) put_f64(w, a);
}

ChunkResult decode_chunk_result(support::ByteReader& r) {
  ChunkResult result;
  result.index = get_u64(r);
  result.accum = decode_chunk_accum(r);
  const std::uint32_t count = r.u32_le();
  if (count > kChunkTrials) {
    throw support::DataError("wire: chunk attempts count exceeds chunk size");
  }
  result.attempts.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    result.attempts.push_back(get_f64(r));
  }
  return result;
}

void encode_stats(support::ByteWriter& w, const CampaignStats& stats) {
  put_u64(w, stats.trials);
  put_u64(w, stats.successes);
  put_u64(w, stats.detections);
  put_u64(w, stats.degradations);
  put_f64(w, stats.mean_attempts);
  put_f64(w, stats.max_attempts);
  put_f64(w, stats.p50_attempts);
  put_f64(w, stats.p90_attempts);
  put_f64(w, stats.p99_attempts);
  put_f64(w, stats.mean_cycles);
  put_u64(w, stats.total_cycles);
  put_f64(w, stats.mean_startup_ms);
  put_u64(w, stats.detector_trips);
  put_f64(w, stats.mean_ttd_cycles);
}

CampaignStats decode_stats(support::ByteReader& r) {
  CampaignStats stats;
  stats.trials = get_u64(r);
  stats.successes = get_u64(r);
  stats.detections = get_u64(r);
  stats.degradations = get_u64(r);
  stats.mean_attempts = get_f64(r);
  stats.max_attempts = get_f64(r);
  stats.p50_attempts = get_f64(r);
  stats.p90_attempts = get_f64(r);
  stats.p99_attempts = get_f64(r);
  stats.mean_cycles = get_f64(r);
  stats.total_cycles = get_u64(r);
  stats.mean_startup_ms = get_f64(r);
  stats.detector_trips = get_u64(r);
  stats.mean_ttd_cycles = get_f64(r);
  return stats;
}

support::Bytes canonical_config(const CampaignConfig& config) {
  support::Bytes blob;
  support::ByteWriter w(blob);
  w.u8(kWireVersion);
  encode_config(w, config);
  return blob;
}

std::uint64_t config_fingerprint(const CampaignConfig& config) {
  const support::Bytes blob = canonical_config(config);
  std::uint64_t hash = 0xcbf29ce484222325ull;  // FNV-1a 64 offset basis
  for (std::uint8_t byte : blob) {
    hash ^= byte;
    hash *= 0x100000001b3ull;  // FNV-1a 64 prime
  }
  return hash;
}

}  // namespace mavr::campaign::wire
