// Persistent chunk-checkpoint store: an append-only log of completed
// chunk results, keyed by campaign config fingerprint (DESIGN.md §12).
//
// Every record the coordinator merges is first appended here, so a killed
// coordinator resumes a campaign from its completed chunks: on resubmit of
// a config with the same fingerprint, matching records are loaded and only
// the missing chunks are scheduled. Records use the protocol's length+CRC
// frame (support/crc.hpp) — a torn tail record (killed mid-append) fails
// its CRC and is ignored, never half-merged.
//
// Durability ladder (DESIGN.md §14): append() pushes each record through
// the libc buffer to the kernel (fflush), which survives a coordinator
// crash; sync() adds fsync, which survives a host power cut. The
// coordinator batches sync() at client poll boundaries and on drain rather
// than per append — a chunk lost to a power cut is merely recomputed, so
// per-record fsync would buy microseconds of durability at a large
// throughput cost.
#pragma once

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"

namespace mavr::campaignd {

class CheckpointStore {
 public:
  /// `path` empty = disabled: append/load/sync become no-ops.
  explicit CheckpointStore(std::string path) : path_(std::move(path)) {}
  ~CheckpointStore();
  CheckpointStore(const CheckpointStore&) = delete;
  CheckpointStore& operator=(const CheckpointStore&) = delete;

  bool enabled() const { return !path_.empty(); }
  const std::string& path() const { return path_; }

  /// Appends one completed chunk under `fingerprint` and flushes it to the
  /// kernel. The append handle is opened lazily and kept — the store is
  /// written on every completed chunk, so fopen-per-record would dominate.
  void append(std::uint64_t fingerprint, const campaign::ChunkResult& result);

  /// fsyncs everything appended so far (no-op when nothing is dirty).
  /// Crash-safe batching point: call at poll boundaries and on drain.
  void sync();

  /// Every valid record for `fingerprint` with chunk index < `n_chunks`,
  /// deduplicated by index (first record wins — chunks are deterministic,
  /// so duplicates are byte-identical anyway) and sorted ascending.
  /// Corrupt or torn records end the scan; what was read before them is
  /// still returned.
  std::vector<campaign::ChunkResult> load(std::uint64_t fingerprint,
                                          std::uint64_t n_chunks) const;

 private:
  std::string path_;
  std::mutex mu_;  ///< appends come from handler threads, sync from polls
  std::FILE* file_ = nullptr;
  bool dirty_ = false;  ///< bytes appended since the last sync()
};

}  // namespace mavr::campaignd
