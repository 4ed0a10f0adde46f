#include "support/netfault.hpp"

#include <atomic>
#include <mutex>

namespace mavr::support {

namespace {

/// Bound on one injected stall, ms.
constexpr std::uint32_t kDelayMaxMs = 20;

}  // namespace

NetFaultConfig NetFaultConfig::uniform(double rate) {
  NetFaultConfig cfg;
  cfg.frame_drop = rate;
  cfg.byte_corrupt = rate;
  cfg.short_write = rate;
  // A half-open hang is not recoverable in-band: the peer only notices at
  // its own reply timeout, so each one costs a full timeout of wall-clock.
  // At the rates the chaos suite sweeps (1-5%) an equal half-open rate
  // would dominate every run; a tenth keeps the class present without
  // letting it mask the cheap faults.
  cfg.half_open = rate / 10.0;
  cfg.delay = rate;
  return cfg;
}

struct NetFaultPlane::Impl {
  NetFaultConfig config;
  Rng root;
  std::mutex mu;                    // guards next_connection
  std::uint64_t next_connection = 0;

  std::atomic<std::uint64_t> frames_dropped{0};
  std::atomic<std::uint64_t> frames_corrupted{0};
  std::atomic<std::uint64_t> short_writes{0};
  std::atomic<std::uint64_t> half_opens{0};
  std::atomic<std::uint64_t> delays{0};
  std::atomic<std::uint64_t> connections{0};

  Impl(const NetFaultConfig& cfg, const Rng& rng) : config(cfg), root(rng) {}
};

namespace {

/// One connection's fault schedule: independent send/recv draw streams
/// forked off the plane's root, tallying into the plane's counters. The
/// half-open flag is sticky — once the cable is "pulled" the connection
/// stays silent in both directions until torn down.
class ConnectionFaults : public SocketFaultHook {
 public:
  ConnectionFaults(NetFaultPlane::Impl* plane, Rng send_rng, Rng recv_rng)
      : plane_(plane),
        send_rng_(std::move(send_rng)),
        recv_rng_(std::move(recv_rng)) {}

  SendPlan plan_send(std::size_t len) override {
    SendPlan plan;
    const NetFaultConfig& cfg = plane_->config;
    if (hung_.load(std::memory_order_relaxed)) {
      plan.half_open = true;
      return plan;
    }
    std::lock_guard<std::mutex> lock(send_mu_);
    if (cfg.delay > 0 && send_rng_.chance(cfg.delay)) {
      plan.delay_ms =
          static_cast<std::uint32_t>(send_rng_.range(1, kDelayMaxMs));
      plane_->delays.fetch_add(1, std::memory_order_relaxed);
    }
    if (cfg.half_open > 0 && send_rng_.chance(cfg.half_open)) {
      hung_.store(true, std::memory_order_relaxed);
      plan.half_open = true;
      plane_->half_opens.fetch_add(1, std::memory_order_relaxed);
      return plan;
    }
    if (cfg.frame_drop > 0 && send_rng_.chance(cfg.frame_drop)) {
      plan.drop = true;
      plane_->frames_dropped.fetch_add(1, std::memory_order_relaxed);
      return plan;
    }
    if (len > 0 && cfg.byte_corrupt > 0 && send_rng_.chance(cfg.byte_corrupt)) {
      plan.corrupt_at = static_cast<std::size_t>(send_rng_.below(len));
      // Flip one bit, never zero: mask 0 would be a no-op "fault".
      plan.corrupt_mask =
          static_cast<std::uint8_t>(1u << send_rng_.below(8));
      plane_->frames_corrupted.fetch_add(1, std::memory_order_relaxed);
      return plan;
    }
    if (len > 1 && cfg.short_write > 0 && send_rng_.chance(cfg.short_write)) {
      plan.truncate_to = static_cast<std::size_t>(send_rng_.range(1, len - 1));
      plane_->short_writes.fetch_add(1, std::memory_order_relaxed);
    }
    return plan;
  }

  std::uint32_t plan_recv_delay() override {
    const NetFaultConfig& cfg = plane_->config;
    if (cfg.delay <= 0) return 0;
    std::lock_guard<std::mutex> lock(recv_mu_);
    if (!recv_rng_.chance(cfg.delay)) return 0;
    plane_->delays.fetch_add(1, std::memory_order_relaxed);
    return static_cast<std::uint32_t>(recv_rng_.range(1, kDelayMaxMs));
  }

  bool recv_hung() override { return hung_.load(std::memory_order_relaxed); }

 private:
  NetFaultPlane::Impl* plane_;
  std::mutex send_mu_;  // Rng draws are stateful; sends may race recvs
  std::mutex recv_mu_;
  Rng send_rng_;
  Rng recv_rng_;
  std::atomic<bool> hung_{false};
};

}  // namespace

NetFaultPlane::NetFaultPlane(const NetFaultConfig& config, const Rng& rng)
    : impl_(std::make_unique<Impl>(config, rng)) {}

NetFaultPlane::~NetFaultPlane() = default;

bool NetFaultPlane::armed() const { return impl_->config.any(); }

const NetFaultConfig& NetFaultPlane::config() const { return impl_->config; }

std::shared_ptr<SocketFaultHook> NetFaultPlane::fork_connection() {
  if (!armed()) return nullptr;
  std::uint64_t k;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    k = impl_->next_connection++;
  }
  impl_->connections.fetch_add(1, std::memory_order_relaxed);
  return std::make_shared<ConnectionFaults>(
      impl_.get(), impl_->root.fork(2 * k), impl_->root.fork(2 * k + 1));
}

void NetFaultPlane::arm(Socket& sock) {
  if (!sock.valid()) return;
  if (auto hook = fork_connection()) sock.set_fault_hook(std::move(hook));
}

NetFaultStats NetFaultPlane::stats() const {
  NetFaultStats out;
  out.frames_dropped = impl_->frames_dropped.load(std::memory_order_relaxed);
  out.frames_corrupted =
      impl_->frames_corrupted.load(std::memory_order_relaxed);
  out.short_writes = impl_->short_writes.load(std::memory_order_relaxed);
  out.half_opens = impl_->half_opens.load(std::memory_order_relaxed);
  out.delays = impl_->delays.load(std::memory_order_relaxed);
  out.connections = impl_->connections.load(std::memory_order_relaxed);
  return out;
}

}  // namespace mavr::support
