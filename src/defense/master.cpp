#include "defense/master.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "support/crc.hpp"
#include "support/log.hpp"
#include "toolchain/intelhex.hpp"

namespace mavr::defense {

MasterProcessor::MasterProcessor(ExternalFlash& flash, sim::Board& board,
                                 const MasterConfig& config)
    : flash_(flash), board_(board), config_(config), rng_(config.seed) {}

void MasterProcessor::host_upload(std::span<const std::uint8_t> container) {
  flash_.store(container);  // stored verbatim (paper §VI-B2)
}

void MasterProcessor::host_upload_hex(const std::string& hex) {
  host_upload(toolchain::intel_hex_decode(hex).data);
}

std::size_t MasterProcessor::symbol_count() const {
  if (flash_.empty()) return 0;
  // Introspection reads the pristine contents, not the faulted SPI path —
  // it must not perturb the fault schedule of the programming stream.
  return movable_count(parse_container(flash_.contents()).blob);
}

std::int64_t MasterProcessor::endurance_remaining() const {
  const std::int64_t budget =
      config_.endurance_budget >= 0
          ? config_.endurance_budget
          : static_cast<std::int64_t>(board_.cpu().spec().flash_endurance);
  return budget - board_.flash_write_cycles();
}

void MasterProcessor::boot() {
  MAVR_REQUIRE(!flash_.empty(), "no firmware uploaded to external flash");
  ++boots_;
  const bool scheduled =
      randomizations_ == 0 ||
      (boots_ - 1) % config_.randomize_every_n_boots == 0;
  if (scheduled) {
    if (endurance_remaining() > config_.endurance_reserve) {
      randomize_and_program();
    } else {
      // Endurance floor (§VI-A): stop spending scheduled cycles and keep
      // what is left for watchdog-triggered recovery.
      ++health_.scheduled_skips;
      MAVR_LOG(Warn, "master")
          << "scheduled re-randomization skipped: " << endurance_remaining()
          << " endurance cycles left (reserve " << config_.endurance_reserve
          << "); releasing previously programmed image";
      board_.reset();
      reset_detector();
    }
  } else {
    // Scheduled non-randomizing boot: just release the application from
    // reset — the previously programmed binary keeps its permutation and
    // no flash endurance is spent.
    board_.reset();
    reset_detector();
  }
  last_feed_cycle_ = board_.cpu().cycles();
}

std::optional<Container> MasterProcessor::read_container() {
  for (std::uint32_t attempt = 0; attempt <= config_.container_read_retries;
       ++attempt) {
    try {
      return parse_container(flash_.read_all());
    } catch (const support::DataError& e) {
      ++health_.container_crc_failures;
      MAVR_LOG(Debug, "master")
          << "container read " << attempt + 1 << " rejected: " << e.what();
    }
  }
  return std::nullopt;
}

void MasterProcessor::randomize_and_program() {
  // CRC32-framed container validation *before* patching: a corrupted
  // external-flash read must never reach the randomizer.
  std::optional<Container> container = read_container();
  if (!container) {
    MAVR_LOG(Warn, "master")
        << "container unreadable after retries; degrading";
    degrade_to_last_good();
    return;
  }
  std::vector<std::size_t> permutation;
  RandomizeResult result;
  if (config_.randomize_enabled) {
    permutation = draw_permutation(container->blob, rng_);
    result = randomize_image(container->image, container->blob, permutation);
  } else {
    // Detection-only deployment: program the container verbatim. The
    // identity permutation keeps current_permutation() meaningful.
    permutation.resize(movable_count(container->blob));
    std::iota(permutation.begin(), permutation.end(), std::size_t{0});
    result.image = container->image;
  }

  StartupReport report;
  for (std::uint32_t attempt = 0; attempt <= config_.image_retries;
       ++attempt) {
    if (attempt > 0) {
      ++health_.image_retries;
      report.retry_ms += config_.retry_backoff_ms * attempt;
    }
    if (endurance_remaining() <= 0) {
      ++health_.endurance_exhausted_events;
      break;  // each pass costs an erase cycle we no longer have
    }
    report.image_attempts = attempt + 1;
    if (program_verified(result.image, report)) {
      current_permutation_ = std::move(permutation);
      last_good_image_ = result.image;
      last_good_addrs_ = config_.randomize_enabled
                             ? result.new_addrs
                             : container->blob.function_addrs;
      last_good_sizes_ = container->blob.function_sizes;
      ++randomizations_;
      health_state_ = MasterHealth::kHealthy;
      finish_report(result.image.size(), report);
      text_end_ = container->blob.text_end;
      sync_detector(last_good_image_);
      return;
    }
  }
  degrade_to_last_good();
}

double MasterProcessor::page_transfer_ms(std::size_t bytes) const {
  return static_cast<double>(bytes) * 10.0 * 1000.0 / config_.serial_baud;
}

bool MasterProcessor::program_verified(std::span<const std::uint8_t> image,
                                       StartupReport& report) {
  // Program through the bootloader (paper §VI-B4): reset into the loader,
  // chip erase, stream pages — now with per-page CRC32 readback verify and
  // bounded retransmission — then a whole-image verify before release.
  board_.bootloader_enter();
  board_.bootloader_erase();
  const std::uint32_t page = board_.cpu().spec().flash_page_bytes;
  support::Bytes wire;
  for (std::uint32_t off = 0; off < image.size(); off += page) {
    const std::uint32_t len = std::min<std::uint32_t>(
        page, static_cast<std::uint32_t>(image.size()) - off);
    const std::uint32_t want = support::crc32_ieee(image.subspan(off, len));
    bool placed = false;
    for (std::uint32_t attempt = 0; attempt <= config_.page_retries;
         ++attempt) {
      if (attempt > 0) {
        ++health_.page_retries;
        ++report.page_retries;
        // Retransmission plus linear backoff before the retry.
        report.retry_ms += page_transfer_ms(len) +
                           config_.retry_backoff_ms * attempt;
      }
      wire.assign(image.begin() + off, image.begin() + off + len);
      const support::PageTransfer fate =
          faults_ ? faults_->filter_page(wire) : support::PageTransfer::kOk;
      if (fate == support::PageTransfer::kDropped) {
        continue;  // bootloader ack timed out; retransmit
      }
      board_.bootloader_write_page(off, wire);
      // Per-page verify: CRC32 of the bootloader readback against the
      // intended bytes catches both transit corruption and failed program
      // pulses.
      if (support::crc32_ieee(board_.bootloader_read_page(off, len)) ==
          want) {
        placed = true;
        break;
      }
      ++health_.page_verify_failures;
    }
    if (!placed) {
      MAVR_LOG(Debug, "master")
          << "page at 0x" << std::hex << off << std::dec << " not placed in "
          << config_.page_retries + 1 << " attempts; abandoning pass";
      return false;  // board remains parked in the bootloader
    }
  }
  // Whole-image readback verify: nothing torn leaves the bootloader.
  if (support::crc32_ieee(board_.bootloader_read_page(
          0, static_cast<std::uint32_t>(image.size()))) !=
      support::crc32_ieee(image)) {
    ++health_.page_verify_failures;
    return false;
  }
  if (config_.set_readout_protection) {
    board_.set_readout_protection();  // re-arm the fuse the erase cleared
  }
  board_.bootloader_run_application();
  return true;
}

void MasterProcessor::degrade_to_last_good() {
  // Rung 1: release the last image that passed full verification — a
  // stale permutation still flies the aircraft (paper §V-C's availability
  // argument), which beats a bricked board.
  if (!last_good_image_.empty()) {
    StartupReport report;
    for (std::uint32_t attempt = 0;
         attempt <= config_.image_retries && endurance_remaining() > 0;
         ++attempt) {
      report.image_attempts = attempt + 1;
      if (attempt > 0) report.retry_ms += config_.retry_backoff_ms * attempt;
      if (program_verified(last_good_image_, report)) {
        ++health_.fallbacks_to_last_good;
        health_state_ = MasterHealth::kDegradedLastGood;
        MAVR_LOG(Warn, "master")
            << "reflash failed; released last-known-good image";
        finish_report(last_good_image_.size(), report);
        // The last-good image came from the same container, so text_end_
        // still caps its executable region.
        sync_detector(last_good_image_);
        return;
      }
    }
  }
  // Rung 2 (terminal): park the application in its bootloader. A held
  // core beats a torn image — the board never executes unverified flash.
  if (!board_.in_bootloader()) board_.bootloader_enter();
  health_state_ = MasterHealth::kHeldSafe;
  ++health_.holds_in_bootloader;
  MAVR_LOG(Error, "master")
      << "no verified image placeable; board held in bootloader";
}

void MasterProcessor::finish_report(std::size_t image_bytes,
                                    StartupReport& report) {
  // Timing model (Table II): the randomization is patched in a streaming
  // pass while bytes move over the serial link, and the bootloader writes
  // each page while the next one arrives, so startup cost is the larger
  // of the two pipelines. Page CRC checks and readback verification are
  // pipelined the same way and cost nothing extra when fault-free;
  // retransmissions and backoff accumulate in retry_ms.
  const std::uint32_t page = board_.cpu().spec().flash_page_bytes;
  report.image_bytes = static_cast<std::uint32_t>(image_bytes);
  report.transfer_ms = page_transfer_ms(image_bytes);
  report.flash_ms = static_cast<double>((image_bytes + page - 1) / page) *
                    config_.page_program_ms;
  report.total_ms =
      std::max(report.transfer_ms, report.flash_ms) + report.retry_ms;
  last_startup_ = report;
}

bool MasterProcessor::service() {
  if (board_.in_bootloader()) return false;
  const std::uint64_t now = board_.cpu().cycles();
  const std::uint64_t last_feed = board_.feed_line().last_write_cycle();
  if (last_feed > last_feed_cycle_) last_feed_cycle_ = last_feed;
  // Defensive clamp: the Cpu cycle counter is monotonic across
  // Board::reset() today, but if it ever restarted from zero a stale
  // high-water mark here would disarm the quiet check forever (the
  // detect→reflash→detect-again regression test pins this).
  if (last_feed_cycle_ > now) last_feed_cycle_ = now;

  const bool quiet = now > last_feed_cycle_ &&
                     now - last_feed_cycle_ > config_.watchdog_timeout_cycles;
  // A runtime-detector trip is an intrusion even while the board keeps
  // flying and feeding — the stealthy variants' whole point — and gets the
  // same answer as a crashed/quiet board.
  const bool intrusion = detector_ != nullptr && detector_->tripped();
  if (!board_.crashed() && !quiet && !intrusion) return false;

  // Failed ROP attack: the application is executing garbage (§V-D) — or a
  // detector flagged a live one. Reset, re-randomize, reprogram — the
  // attacker must start over against a fresh permutation.
  if (intrusion) ++health_.detector_trips;
  ++attacks_detected_;
  if (endurance_remaining() > 0) {
    randomize_and_program();
  } else {
    // Budget truly gone: re-randomization is no longer possible. Restart
    // the image already in flash so the board at least stops executing
    // garbage; the permutation is now fixed (degraded defense).
    ++health_.endurance_exhausted_events;
    MAVR_LOG(Error, "master")
        << "attack detected but endurance budget exhausted; restarting "
           "without re-randomization";
    board_.reset();
    reset_detector();
  }
  last_feed_cycle_ = board_.cpu().cycles();
  return true;
}

void MasterProcessor::sync_detector(std::span<const std::uint8_t> image) {
  if (detector_ == nullptr) return;
  detector_->rebuild(image, text_end_);
  // Re-materialize the derived per-function policy against the layout just
  // placed: the policy names functions by blob index, so it survives
  // randomization verbatim — only the address ranges move.
  if (policy_ != nullptr && !policy_->functions.empty() &&
      policy_->functions.size() == last_good_addrs_.size()) {
    detector_->load_policy(detect::MaterializedPolicy::materialize(
        *policy_, last_good_addrs_, last_good_sizes_));
  } else {
    detector_->clear_policy();
  }
  detector_->reset_dynamic();
}

void MasterProcessor::reset_detector() {
  if (detector_ != nullptr) detector_->reset_dynamic();
}

}  // namespace mavr::defense
