// Content-addressed analysis cache (DESIGN.md §15).
//
// The analysis plane keys every unit of work by a SHA-256 digest of its
// *canonical* input bytes — for a whole image the raw image contents, for
// a single function the permutation-invariant form produced by
// analysis::canonical_function_digest. Rerandomized images therefore hit
// the cache block-by-block: every function's canonical bytes are identical
// across permutations even though its address and every CALL/JMP target
// word changed.
//
// On-disk format is an append-only record stream, one frame per entry:
//
//   [u32 len][u32 crc32(payload)][payload]
//   payload = [u8 version][32-byte digest][record bytes]
//
// the record frame of support/crc.hpp, which the campaign checkpoint store
// and the campaign service's messages use too: a torn
// tail (partial append at crash) or a corrupt record (bit rot, concurrent
// writer) fails the CRC or the length check, loading stops at the last
// good frame, and the analysis simply recomputes what is missing. A cache
// can never make results wrong — only slower or faster.
#pragma once

#include <cstdint>
#include <fstream>
#include <map>
#include <string>

#include "support/bytes.hpp"
#include "support/sha256.hpp"

namespace mavr::analysis {

/// Load-time accounting, mostly for tests and the bench harness.
struct CacheLoadStats {
  std::uint64_t records_loaded = 0;
  std::uint64_t bytes_loaded = 0;
  /// Frames dropped at load: CRC mismatch, bad length, short payload,
  /// or an unknown version byte. Loading stops at the first bad frame —
  /// framing is unrecoverable past it.
  std::uint64_t records_rejected = 0;
};

/// Digest-keyed byte-blob store, optionally backed by an append-only file.
/// Single-threaded by design: the analysis plane runs before any trial
/// fan-out, and the CLI/bench drive it from one thread.
class AnalysisCache {
 public:
  /// In-memory cache (no persistence).
  AnalysisCache() = default;

  /// File-backed cache: loads whatever valid prefix `path` holds (a
  /// missing file is an empty cache) and appends every insert to it.
  explicit AnalysisCache(std::string path);

  const CacheLoadStats& load_stats() const { return load_stats_; }
  std::size_t entries() const { return entries_.size(); }

  /// Record bytes for `digest`, or nullptr on miss. The pointer stays
  /// valid until the entry is overwritten.
  const support::Bytes* lookup(const support::Sha256Digest& digest) const;

  /// Stores (and, when file-backed, appends) a record.
  void insert(const support::Sha256Digest& digest, support::Bytes record);

 private:
  void load_file();
  void append_record(const support::Sha256Digest& digest,
                     const support::Bytes& record);

  std::string path_;
  std::map<support::Sha256Digest, support::Bytes> entries_;
  std::ofstream appender_;
  CacheLoadStats load_stats_;
};

}  // namespace mavr::analysis
