#include "analysis/cache.hpp"

#include <cstring>
#include <iterator>
#include <span>

#include "support/crc.hpp"
#include "support/error.hpp"

namespace mavr::analysis {

namespace {

constexpr std::uint8_t kRecordVersion = 1;
// 1 version byte + 32 digest bytes precede the record body.
constexpr std::size_t kPayloadHeader = 1 + 32;
// Sanity bound: no per-function or per-image record comes anywhere near
// this; a frame claiming more is corruption, not data.
constexpr std::uint32_t kMaxRecordBytes = 16u << 20;

}  // namespace

AnalysisCache::AnalysisCache(std::string path) : path_(std::move(path)) {
  MAVR_REQUIRE(!path_.empty(), "file-backed cache needs a path");
  load_file();
  appender_.open(path_, std::ios::binary | std::ios::app);
}

void AnalysisCache::load_file() {
  std::ifstream in(path_, std::ios::binary);
  if (!in) return;  // no file yet: empty cache
  support::Bytes file((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  std::size_t pos = 0;
  while (pos < file.size()) {
    const auto payload = support::next_frame(file, &pos, kMaxRecordBytes);
    if (!payload || payload->size() < kPayloadHeader ||
        (*payload)[0] != kRecordVersion) {
      // Torn tail, garbled length, bad CRC or trailing scrap: framing is
      // gone from here on.
      ++load_stats_.records_rejected;
      return;
    }
    support::Sha256Digest digest;
    std::memcpy(digest.data(), payload->data() + 1, digest.size());
    entries_[digest] = support::Bytes(payload->begin() + kPayloadHeader,
                                      payload->end());
    ++load_stats_.records_loaded;
    load_stats_.bytes_loaded += payload->size() - kPayloadHeader;
  }
}

const support::Bytes* AnalysisCache::lookup(
    const support::Sha256Digest& digest) const {
  const auto it = entries_.find(digest);
  return it == entries_.end() ? nullptr : &it->second;
}

void AnalysisCache::insert(const support::Sha256Digest& digest,
                           support::Bytes record) {
  auto [it, fresh] = entries_.insert_or_assign(digest, std::move(record));
  if (fresh && appender_.is_open()) append_record(digest, it->second);
}

void AnalysisCache::append_record(const support::Sha256Digest& digest,
                                  const support::Bytes& record) {
  support::Bytes payload;
  payload.reserve(kPayloadHeader + record.size());
  payload.push_back(kRecordVersion);
  payload.insert(payload.end(), digest.begin(), digest.end());
  payload.insert(payload.end(), record.begin(), record.end());
  support::Bytes frame;
  support::put_frame(frame, payload);
  appender_.write(reinterpret_cast<const char*>(frame.data()),
                  static_cast<std::streamsize>(frame.size()));
  appender_.flush();
}

}  // namespace mavr::analysis
