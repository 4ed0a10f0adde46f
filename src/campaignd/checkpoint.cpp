#include "campaignd/checkpoint.hpp"

#include <algorithm>
#include <memory>
#include <set>

#include <unistd.h>

#include "campaign/wire.hpp"
#include "campaignd/protocol.hpp"
#include "support/bytes.hpp"
#include "support/crc.hpp"
#include "support/error.hpp"

namespace mavr::campaignd {

namespace {

namespace wire = campaign::wire;

struct FileCloser {
  void operator()(std::FILE* f) const { std::fclose(f); }
};
using FileHandle = std::unique_ptr<std::FILE, FileCloser>;

}  // namespace

CheckpointStore::~CheckpointStore() {
  if (file_ != nullptr) {
    std::fflush(file_);
    if (dirty_) ::fsync(::fileno(file_));
    std::fclose(file_);
  }
}

void CheckpointStore::append(std::uint64_t fingerprint,
                             const campaign::ChunkResult& result) {
  if (!enabled()) return;
  support::Bytes payload;
  support::ByteWriter pw(payload);
  pw.u8(wire::kWireVersion);
  wire::put_u64(pw, fingerprint);
  wire::encode_chunk_result(pw, result);

  support::Bytes record;
  support::put_frame(record, payload);

  const std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) {
    file_ = std::fopen(path_.c_str(), "ab");
    MAVR_CHECK(file_ != nullptr, "cannot open checkpoint store for append");
  }
  // One fwrite per record: an OS-level kill between appends leaves whole
  // records; a kill mid-write leaves a torn tail that load() rejects by
  // CRC. fflush pushes the record to the kernel, so only a host power cut
  // (not a process kill) can lose it before the next sync().
  MAVR_CHECK(std::fwrite(record.data(), 1, record.size(), file_) ==
                 record.size(),
             "checkpoint append failed (disk full?)");
  MAVR_CHECK(std::fflush(file_) == 0, "checkpoint flush failed");
  dirty_ = true;
}

void CheckpointStore::sync() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr || !dirty_) return;
  MAVR_CHECK(std::fflush(file_) == 0, "checkpoint flush failed");
  MAVR_CHECK(::fsync(::fileno(file_)) == 0, "checkpoint fsync failed");
  dirty_ = false;
}

std::vector<campaign::ChunkResult> CheckpointStore::load(
    std::uint64_t fingerprint, std::uint64_t n_chunks) const {
  std::vector<campaign::ChunkResult> out;
  if (!enabled()) return out;
  const FileHandle f(std::fopen(path_.c_str(), "rb"));
  if (!f) return out;  // no store yet: nothing to resume

  support::Bytes data;
  std::uint8_t buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f.get())) > 0) {
    data.insert(data.end(), buf, buf + n);
  }

  std::set<std::uint64_t> seen;
  std::size_t pos = 0;
  // A bad frame is a torn tail (coordinator killed mid-append): stop there.
  // A payload shorter than version + fingerprint cannot be a record.
  while (const auto payload =
             support::next_frame(data, &pos, kMaxFrameBytes)) {
    if (payload->size() < 9) break;
    try {
      support::ByteReader r(*payload);
      if (r.u8() != wire::kWireVersion) continue;  // stale-format record
      if (wire::get_u64(r) != fingerprint) continue;  // other campaign
      campaign::ChunkResult result = wire::decode_chunk_result(r);
      if (!r.done() || result.index >= n_chunks) continue;
      if (!seen.insert(result.index).second) continue;
      out.push_back(std::move(result));
    } catch (const support::Error&) {
      continue;  // malformed record body: skip, keep scanning
    }
  }
  std::sort(out.begin(), out.end(),
            [](const campaign::ChunkResult& a, const campaign::ChunkResult& b) {
              return a.index < b.index;
            });
  return out;
}

}  // namespace mavr::campaignd
