// Wire encoding and framing tests: every struct that crosses the
// campaignd process boundary must round-trip bit-exactly (the service's
// determinism contract survives serialization only if the bytes do), and
// the frame layer must reject corruption rather than misparse it.
#include <unistd.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "campaign/campaign.hpp"
#include "campaign/wire.hpp"
#include "campaignd/checkpoint.hpp"
#include "campaignd/protocol.hpp"
#include "support/bytes.hpp"
#include "support/error.hpp"
#include "support/socket.hpp"

namespace {

using namespace mavr;
namespace wire = campaign::wire;

/// Bit-exact double comparison: distinguishes -0.0 from 0.0 and compares
/// denormals exactly, which operator== does not.
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

campaign::CampaignConfig sample_config() {
  campaign::CampaignConfig config;
  config.scenario = campaign::Scenario::kDetectSweep;
  config.trials = 12'345;
  config.jobs = 7;  // must NOT survive the wire
  config.seed = 0xDEADBEEFCAFEF00Dull;
  config.n_functions = 11;
  config.warmup_cycles = 123'456'789;
  config.slice_cycles = 54'321;
  config.attack_slices = 99;
  config.watchdog_timeout_cycles = 777'777;
  config.fault_rate = 0.125;
  config.detectors = 0b1010u;
  config.detect_attack = campaign::DetectAttack::kV2;
  config.detect_randomize = true;
  return config;
}

TEST(Wire, ConfigRoundTripDropsJobs) {
  const campaign::CampaignConfig config = sample_config();
  support::Bytes blob;
  support::ByteWriter w(blob);
  wire::encode_config(w, config);
  support::ByteReader r(blob);
  const campaign::CampaignConfig back = wire::decode_config(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(back.scenario, config.scenario);
  EXPECT_EQ(back.trials, config.trials);
  EXPECT_EQ(back.jobs, 1u);  // execution detail, reset on decode
  EXPECT_EQ(back.seed, config.seed);
  EXPECT_EQ(back.n_functions, config.n_functions);
  EXPECT_EQ(back.warmup_cycles, config.warmup_cycles);
  EXPECT_EQ(back.slice_cycles, config.slice_cycles);
  EXPECT_EQ(back.attack_slices, config.attack_slices);
  EXPECT_EQ(back.watchdog_timeout_cycles, config.watchdog_timeout_cycles);
  EXPECT_TRUE(same_bits(back.fault_rate, config.fault_rate));
  EXPECT_EQ(back.detectors, config.detectors);
  EXPECT_EQ(back.detect_attack, config.detect_attack);
  EXPECT_EQ(back.detect_randomize, config.detect_randomize);
}

TEST(Wire, ConfigRejectsUnknownTags) {
  const campaign::CampaignConfig config = sample_config();
  support::Bytes blob;
  support::ByteWriter w(blob);
  wire::encode_config(w, config);
  support::Bytes bad = blob;
  bad[0] = 200;  // scenario tag
  support::ByteReader r(bad);
  EXPECT_THROW(wire::decode_config(r), support::DataError);
}

campaign::ChunkResult sample_chunk(std::uint64_t index, std::size_t n) {
  campaign::ChunkResult chunk;
  chunk.index = index;
  chunk.accum.sum_attempts = 1.0 / 3.0;
  chunk.accum.max_attempts = 1e308;
  chunk.accum.sum_startup_ms = -0.0;
  chunk.accum.sum_ttd_cycles = std::numeric_limits<double>::denorm_min();
  chunk.accum.cycles = std::numeric_limits<std::uint64_t>::max();
  chunk.accum.successes = 64;
  chunk.accum.detections = 63;
  chunk.accum.degradations = 1;
  chunk.accum.detector_trips = 62;
  for (std::size_t i = 0; i < n; ++i) {
    chunk.attempts.push_back(static_cast<double>(i) + 1.0 / 7.0);
  }
  return chunk;
}

TEST(Wire, ChunkResultRoundTripBitExact) {
  const campaign::ChunkResult chunk =
      sample_chunk(/*index=*/9'999'999'999ull, /*n=*/campaign::kChunkTrials);
  support::Bytes blob;
  support::ByteWriter w(blob);
  wire::encode_chunk_result(w, chunk);
  support::ByteReader r(blob);
  const campaign::ChunkResult back = wire::decode_chunk_result(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(back.index, chunk.index);
  EXPECT_TRUE(same_bits(back.accum.sum_attempts, chunk.accum.sum_attempts));
  EXPECT_TRUE(same_bits(back.accum.max_attempts, chunk.accum.max_attempts));
  EXPECT_TRUE(
      same_bits(back.accum.sum_startup_ms, chunk.accum.sum_startup_ms));
  EXPECT_TRUE(
      same_bits(back.accum.sum_ttd_cycles, chunk.accum.sum_ttd_cycles));
  EXPECT_EQ(back.accum.cycles, chunk.accum.cycles);
  EXPECT_EQ(back.accum.successes, chunk.accum.successes);
  EXPECT_EQ(back.accum.detections, chunk.accum.detections);
  EXPECT_EQ(back.accum.degradations, chunk.accum.degradations);
  EXPECT_EQ(back.accum.detector_trips, chunk.accum.detector_trips);
  ASSERT_EQ(back.attempts.size(), chunk.attempts.size());
  for (std::size_t i = 0; i < chunk.attempts.size(); ++i) {
    EXPECT_TRUE(same_bits(back.attempts[i], chunk.attempts[i]));
  }
}

TEST(Wire, ChunkResultRejectsOversizedAttempts) {
  campaign::ChunkResult chunk = sample_chunk(0, campaign::kChunkTrials);
  support::Bytes blob;
  support::ByteWriter w(blob);
  wire::encode_chunk_result(w, chunk);
  // Patch the attempts count (right after index + accum) past the chunk
  // trial budget.
  const std::size_t count_offset = 8 + (4 * 8 + 5 * 8);
  blob[count_offset] = 65;
  support::ByteReader r(blob);
  EXPECT_THROW(wire::decode_chunk_result(r), support::Error);
}

TEST(Wire, StatsRoundTripBitExact) {
  campaign::CampaignStats stats;
  stats.trials = std::numeric_limits<std::uint64_t>::max();
  stats.successes = 1;
  stats.detections = 2;
  stats.degradations = 3;
  stats.mean_attempts = 0.1 + 0.2;  // classic non-representable sum
  stats.max_attempts = 1e300;
  stats.p50_attempts = -0.0;
  stats.p90_attempts = std::numeric_limits<double>::denorm_min();
  stats.p99_attempts = 1.0 / 3.0;
  stats.mean_cycles = 2.5;
  stats.total_cycles = 123;
  stats.mean_startup_ms = 4.25;
  stats.detector_trips = 5;
  stats.mean_ttd_cycles = 6.125;

  support::Bytes blob;
  support::ByteWriter w(blob);
  wire::encode_stats(w, stats);
  support::ByteReader r(blob);
  const campaign::CampaignStats back = wire::decode_stats(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(0, std::memcmp(&back, &stats, sizeof stats));
}

TEST(Wire, TruncatedInputThrows) {
  support::Bytes blob;
  support::ByteWriter w(blob);
  wire::encode_chunk_result(w, sample_chunk(1, 8));
  blob.resize(blob.size() - 1);
  support::ByteReader r(blob);
  EXPECT_THROW(wire::decode_chunk_result(r), support::Error);
}

TEST(Wire, FingerprintTracksEveryResultField) {
  const campaign::CampaignConfig base = sample_config();
  const std::uint64_t fp = wire::config_fingerprint(base);
  EXPECT_EQ(fp, wire::config_fingerprint(base));  // deterministic

  campaign::CampaignConfig c = base;
  c.jobs = 99;  // execution detail: fingerprint must NOT move
  EXPECT_EQ(fp, wire::config_fingerprint(c));

  c = base; c.scenario = campaign::Scenario::kV1;
  EXPECT_NE(fp, wire::config_fingerprint(c));
  c = base; c.trials += 1;
  EXPECT_NE(fp, wire::config_fingerprint(c));
  c = base; c.seed += 1;
  EXPECT_NE(fp, wire::config_fingerprint(c));
  c = base; c.n_functions += 1;
  EXPECT_NE(fp, wire::config_fingerprint(c));
  c = base; c.warmup_cycles += 1;
  EXPECT_NE(fp, wire::config_fingerprint(c));
  c = base; c.slice_cycles += 1;
  EXPECT_NE(fp, wire::config_fingerprint(c));
  c = base; c.attack_slices += 1;
  EXPECT_NE(fp, wire::config_fingerprint(c));
  c = base; c.watchdog_timeout_cycles += 1;
  EXPECT_NE(fp, wire::config_fingerprint(c));
  c = base; c.fault_rate += 0.5;
  EXPECT_NE(fp, wire::config_fingerprint(c));
  c = base; c.detectors ^= 1u;
  EXPECT_NE(fp, wire::config_fingerprint(c));
  c = base; c.detect_attack = campaign::DetectAttack::kClean;
  EXPECT_NE(fp, wire::config_fingerprint(c));
  c = base; c.detect_randomize = !c.detect_randomize;
  EXPECT_NE(fp, wire::config_fingerprint(c));
}

// --- frame layer over a real socketpair ---------------------------------

TEST(Protocol, FrameRoundTripOverSocketPair) {
  auto [a, b] = support::Socket::make_pair();
  ASSERT_TRUE(a.valid());
  ASSERT_TRUE(b.valid());

  campaignd::ChunkResultBody body;
  body.campaign_id = 42;
  body.result = sample_chunk(7, campaign::kChunkTrials);
  ASSERT_TRUE(campaignd::send_message(a, campaignd::MsgType::kChunkResult,
                                      campaignd::encode_chunk_result(body)));

  campaignd::Message msg;
  ASSERT_EQ(campaignd::recv_message(b, &msg, 1000), support::IoStatus::kOk);
  EXPECT_EQ(msg.type, campaignd::MsgType::kChunkResult);
  const campaignd::ChunkResultBody back =
      campaignd::decode_chunk_result(msg.body);
  EXPECT_EQ(back.campaign_id, 42u);
  EXPECT_EQ(back.result.index, 7u);
  EXPECT_EQ(back.result.attempts.size(), campaign::kChunkTrials);
}

TEST(Protocol, EmptySocketTimesOut) {
  auto [a, b] = support::Socket::make_pair();
  campaignd::Message msg;
  EXPECT_EQ(campaignd::recv_message(b, &msg, 50),
            support::IoStatus::kTimeout);
}

TEST(Protocol, CorruptFrameReadsAsClosed) {
  auto [a, b] = support::Socket::make_pair();
  support::Bytes frame;
  support::ByteWriter w(frame);
  const support::Bytes payload = {wire::kWireVersion,
                                  static_cast<std::uint8_t>(
                                      campaignd::MsgType::kWorkRequest)};
  w.u32_le(static_cast<std::uint32_t>(payload.size()));
  w.u32_le(0xBAADF00D);  // wrong CRC
  w.bytes(payload);
  ASSERT_TRUE(a.send_all(frame));
  campaignd::Message msg;
  EXPECT_EQ(campaignd::recv_message(b, &msg, 1000),
            support::IoStatus::kClosed);
}

TEST(Protocol, OversizedLengthReadsAsClosed) {
  auto [a, b] = support::Socket::make_pair();
  support::Bytes frame;
  support::ByteWriter w(frame);
  w.u32_le(campaignd::kMaxFrameBytes + 1);
  w.u32_le(0);
  ASSERT_TRUE(a.send_all(frame));
  campaignd::Message msg;
  EXPECT_EQ(campaignd::recv_message(b, &msg, 1000),
            support::IoStatus::kClosed);
}

TEST(Protocol, StatusBodyRoundTrip) {
  campaignd::StatusBody status;
  status.state = campaignd::CampaignState::kRunning;
  status.chunks_done = 3;
  status.chunks_total = 10;
  status.trials_done = 192;
  status.trials_total = 640;
  status.queue_position = 2;
  status.stats.trials = 192;
  status.stats.mean_attempts = 1.0 / 3.0;
  const campaignd::StatusBody back =
      campaignd::decode_status(campaignd::encode_status(status));
  EXPECT_EQ(back.state, status.state);
  EXPECT_EQ(back.chunks_done, status.chunks_done);
  EXPECT_EQ(back.chunks_total, status.chunks_total);
  EXPECT_EQ(back.trials_done, status.trials_done);
  EXPECT_EQ(back.trials_total, status.trials_total);
  EXPECT_EQ(back.queue_position, status.queue_position);
  EXPECT_EQ(0, std::memcmp(&back.stats, &status.stats, sizeof status.stats));
}

TEST(Protocol, AssignBodyRejectsTrailingBytes) {
  campaignd::AssignBody assign;
  assign.campaign_id = 1;
  assign.config = sample_config();
  assign.chunks = {0, 1, 2};
  support::Bytes blob = campaignd::encode_assign(assign);
  const campaignd::AssignBody back = campaignd::decode_assign(blob);
  EXPECT_EQ(back.chunks, assign.chunks);
  blob.push_back(0);
  EXPECT_THROW(campaignd::decode_assign(blob), support::Error);
}

// Both CLIs read --auth-token-file through this: the first line is the
// token, whatever line ending an editor saved it with.
TEST(Protocol, ReadTokenFileTakesTheFirstLine) {
  const std::string path = ::testing::TempDir() + "mavr_token_" +
                           std::to_string(::getpid()) + ".txt";
  {
    std::ofstream out(path, std::ios::binary);
    out << "sesame\r\nsecond line\n";
  }
  std::string token;
  ASSERT_TRUE(campaignd::read_token_file(path, &token));
  EXPECT_EQ(token, "sesame");
  std::remove(path.c_str());
  EXPECT_FALSE(campaignd::read_token_file(path, &token));
}

// --- checkpoint store ---------------------------------------------------

class CheckpointTest : public ::testing::Test {
 protected:
  // ctest runs each case as its own process, concurrently: the log path
  // must be unique per case (and per process, for other build trees).
  std::string path_ =
      ::testing::TempDir() + "mavr_ckpt_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
      std::to_string(::getpid()) + ".log";
  void SetUp() override { std::remove(path_.c_str()); }
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(CheckpointTest, AppendLoadRoundTrip) {
  campaignd::CheckpointStore store(path_);
  store.append(0x1111, sample_chunk(2, 64));
  store.append(0x1111, sample_chunk(0, 64));
  store.append(0x2222, sample_chunk(5, 64));  // other campaign
  store.append(0x1111, sample_chunk(2, 64));  // duplicate: first wins

  const auto loaded = store.load(0x1111, /*n_chunks=*/10);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].index, 0u);  // sorted ascending
  EXPECT_EQ(loaded[1].index, 2u);
  EXPECT_EQ(loaded[1].attempts.size(), 64u);
  // Out-of-range indices for a smaller campaign are dropped.
  EXPECT_TRUE(store.load(0x2222, /*n_chunks=*/5).empty());
}

TEST_F(CheckpointTest, TornTailIsIgnored) {
  campaignd::CheckpointStore store(path_);
  store.append(0x3333, sample_chunk(0, 64));
  store.append(0x3333, sample_chunk(1, 64));
  {
    // Simulate a kill mid-append: a record header promising more bytes
    // than were ever written.
    std::FILE* f = std::fopen(path_.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const std::uint8_t torn[] = {0xFF, 0x00, 0x00, 0x00, 0x12, 0x34,
                                 0x56, 0x78, 0x01, 0x02};
    std::fwrite(torn, 1, sizeof torn, f);
    std::fclose(f);
  }
  const auto loaded = store.load(0x3333, 10);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].index, 0u);
  EXPECT_EQ(loaded[1].index, 1u);
}

TEST_F(CheckpointTest, DisabledStoreIsInert) {
  campaignd::CheckpointStore store("");
  EXPECT_FALSE(store.enabled());
  store.append(1, sample_chunk(0, 64));  // no-op, must not create a file
  EXPECT_TRUE(store.load(1, 10).empty());
}

}  // namespace
