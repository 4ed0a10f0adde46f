// The MAVR master processor (ATmega1284P, paper §V-A2, §VI-A).
//
// Responsibilities, mirroring the paper:
//  * on (re)flash requests, read the preprocessed container from the
//    external flash, draw a fresh permutation, patch the binary in a
//    streaming pass and program the application processor through its
//    serial bootloader;
//  * randomize on a configurable boot schedule (not every boot — each
//    programming pass costs one of the part's 10,000 flash endurance
//    cycles, §VI-A);
//  * act as a watchdog on the application's feed line; a quiet line means
//    the board is executing garbage (a failed ROP attack) — reset,
//    re-randomize and reprogram immediately (§V-C);
//  * set the application processor's readout-protection fuse so the
//    randomized binary is never observable (§V-A3).
//
// Self-healing reflash pipeline (DESIGN.md §9): every hardware boundary
// the defense crosses can fault (see support::FaultPlane), so the master
//  * validates the container's CRC32 frame before patching, with bounded
//    re-reads of the external flash;
//  * verifies every programmed page by CRC32 readback through the
//    bootloader and retransmits with linear backoff, bounded per page;
//  * retries at whole-image granularity (fresh erase + rewrite) when a
//    page cannot be placed;
//  * enforces the flash endurance budget — scheduled re-randomizations
//    stop at a configurable reserve so watchdog-triggered recovery keeps
//    priority until the budget is truly gone;
//  * degrades gracefully: if a fresh randomization cannot be verified it
//    falls back to the last-known-good image, and as the terminal rung
//    parks the application in its bootloader — the board never runs a
//    torn or unverified image.
//
// A startup timing model reproduces Table II: the 115200-baud serial link
// to the application processor moves ≈11.5 bytes/ms, and patching is
// streamed while transferring, so startup time is the larger of the serial
// transfer and the internal-flash page programming — which is also why the
// paper projects ~4 s on a production PCB with a fast link. Page CRC
// checks and readback verification are pipelined with the next page's
// transfer, so the fault-free timing model is unchanged; retransmissions
// and backoff show up as StartupReport::retry_ms.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "defense/external_flash.hpp"
#include "defense/patcher.hpp"
#include "defense/preprocess.hpp"
#include "detect/engine.hpp"
#include "sim/board.hpp"
#include "support/fault.hpp"
#include "support/rng.hpp"

namespace mavr::defense {

struct MasterConfig {
  std::uint64_t seed = 1;
  /// Randomize every Nth boot (1 = every boot). Failed-attack detection
  /// always re-randomizes regardless of the schedule.
  std::uint32_t randomize_every_n_boots = 1;
  /// When false the master programs the container image verbatim (identity
  /// permutation) — the detection-only deployment the detect-sweep campaign
  /// evaluates (runtime detectors with MAVR randomization switched off).
  /// The reflash pipeline, watchdog and degradation ladder are unchanged.
  bool randomize_enabled = true;
  /// Master ↔ application serial link (prototype: 115200; production PCB
  /// with impedance control: mega-baud, paper §VII-B1).
  std::uint32_t serial_baud = 115200;
  /// Internal flash page programming time (overlapped with reception).
  double page_program_ms = 4.5;
  /// Feed-line silence threshold before declaring a failed attack.
  std::uint64_t watchdog_timeout_cycles = 1'600'000;  // 100 ms @ 16 MHz
  /// Set the readout-protection fuse when programming.
  bool set_readout_protection = true;

  // --- Reflash robustness policy (DESIGN.md §9) ------------------------------
  /// Retransmissions allowed per page before the pass is abandoned.
  std::uint32_t page_retries = 3;
  /// Extra whole-image passes (fresh erase + rewrite) per reflash request.
  std::uint32_t image_retries = 2;
  /// Re-reads of the external-flash container after a CRC/parse failure.
  std::uint32_t container_read_retries = 3;
  /// Linear backoff added per retry (attempt k waits k * backoff).
  double retry_backoff_ms = 2.0;
  /// Endurance floor reserved for watchdog-triggered recovery: scheduled
  /// re-randomizations stop once endurance_remaining() falls to or below
  /// this, while attack-triggered reflashes continue to zero.
  std::int64_t endurance_reserve = 32;
  /// Test/override endurance budget; negative = use the part's spec
  /// (10,000 cycles, §VI-A).
  std::int64_t endurance_budget = -1;
};

/// Timing breakdown of one randomize+program pass (Table II).
struct StartupReport {
  std::uint32_t image_bytes = 0;
  double transfer_ms = 0;   ///< serial-limited, patching streamed within
  double flash_ms = 0;      ///< page programming (overlapped)
  double retry_ms = 0;      ///< retransmissions + backoff (0 when fault-free)
  double total_ms = 0;      ///< max(transfer, flash) + retry_ms
  std::uint32_t page_retries = 0;    ///< pages retransmitted in this pass
  std::uint32_t image_attempts = 1;  ///< whole-image passes (1 = first try)
};

/// Where the defense currently sits on the degradation ladder.
enum class MasterHealth {
  kHealthy,          ///< board runs a freshly randomized, verified image
  kDegradedLastGood, ///< reflash failed; board runs the last verified image
  kHeldSafe,         ///< no verified image placeable; board parked in bootloader
};

/// Recovery/health counters exposed for campaigns and benches. Every
/// counter is monotonic over the master's lifetime.
struct ReflashHealth {
  std::uint64_t container_crc_failures = 0;  ///< rejected container reads
  std::uint64_t page_retries = 0;            ///< page retransmissions sent
  std::uint64_t page_verify_failures = 0;    ///< readback CRC mismatches
  std::uint64_t image_retries = 0;           ///< extra whole-image passes
  std::uint64_t fallbacks_to_last_good = 0;  ///< degradation rung 1 taken
  std::uint64_t holds_in_bootloader = 0;     ///< degradation rung 2 taken
  std::uint64_t scheduled_skips = 0;         ///< rerands skipped (endurance)
  std::uint64_t endurance_exhausted_events = 0;  ///< reflash refused (budget)
  std::uint64_t detector_trips = 0;          ///< intrusions flagged by detect
};

class MasterProcessor {
 public:
  MasterProcessor(ExternalFlash& flash, sim::Board& board,
                  const MasterConfig& config);

  /// Host flashing path: preprocessed container bytes → external flash
  /// (§VI-B2), stored verbatim.
  void host_upload(std::span<const std::uint8_t> container);

  /// Same, from the container's Intel HEX form (decoded, then uploaded).
  void host_upload_hex(const std::string& hex);

  /// Power-on: programs the application processor, randomizing according
  /// to the boot schedule. The very first boot always randomizes.
  /// Scheduled re-randomizations stop (with a degradation event) once the
  /// endurance budget falls to the configured reserve.
  void boot();

  /// Watchdog service: call periodically with the board running. When the
  /// feed line has been quiet past the timeout (or the core faulted), a
  /// failed attack is declared and the binary is immediately
  /// re-randomized and reprogrammed (while endurance remains).
  /// Returns true when an attack was detected on this call.
  bool service();

  /// Attaches (or clears, with nullptr) a fault-injection plane on the
  /// master → bootloader serial page stream. The same plane is typically
  /// also attached to the ExternalFlash (reads) and the Board (program
  /// pulses). The plane must outlive the attachment.
  void attach_faults(support::FaultPlane* plane) { faults_ = plane; }

  /// Attaches (or clears, with nullptr) a runtime intrusion-detection
  /// engine. The caller arms it on the board's Cpu; the master then
  ///  * treats Engine::tripped() exactly like a crashed/quiet board in
  ///    service() — reset, re-randomize, reprogram (ReflashHealth counts
  ///    the trip in detector_trips);
  ///  * rebuilds the engine's return-edge CFI set from every image it
  ///    successfully programs (randomization moves the call sites), and
  ///  * resets the engine's dynamic state whenever the application is
  ///    released from reset.
  /// The engine must outlive the attachment.
  void attach_detector(detect::Engine* engine) { detector_ = engine; }

  /// Attaches (or clears, with nullptr) an analysis-derived per-function
  /// policy (detect::PolicySet, blob function order — see DESIGN.md §15).
  /// On every successful programming pass the master materializes it
  /// against the layout it just placed (randomization moves every
  /// function) and loads it into the attached detector; the caller arms
  /// detect::kDetectPolicy. A policy whose shape does not match the
  /// container's blob is ignored (the detector's policy is cleared).
  /// The set must outlive the attachment.
  void attach_policy(const detect::PolicySet* policy) { policy_ = policy; }

  // --- Introspection ----------------------------------------------------------
  std::uint32_t boots() const { return boots_; }
  std::uint32_t randomizations() const { return randomizations_; }
  std::uint64_t attacks_detected() const { return attacks_detected_; }
  const std::optional<StartupReport>& last_startup() const {
    return last_startup_;
  }
  /// Movable-block count of the loaded container (the paper's n).
  std::size_t symbol_count() const;
  /// Remaining flash endurance (10,000-cycle budget, §VI-A; never driven
  /// negative by the master).
  std::int64_t endurance_remaining() const;
  /// Current rung on the degradation ladder.
  MasterHealth health_state() const { return health_state_; }
  /// Recovery/health counters (see ReflashHealth).
  const ReflashHealth& health() const { return health_; }

  /// Test-only: the permutation currently programmed (an attacker never
  /// sees this — the fuse blocks readout).
  const std::vector<std::size_t>& current_permutation() const {
    return current_permutation_;
  }

 private:
  void randomize_and_program();
  std::optional<Container> read_container();
  /// One full programming pass with per-page and whole-image readback
  /// verification. Returns false when a page could not be placed; the
  /// board is then still parked in its bootloader.
  bool program_verified(std::span<const std::uint8_t> image,
                        StartupReport& report);
  /// Degradation ladder: reprogram the last-known-good image, else hold
  /// the application in its bootloader.
  void degrade_to_last_good();
  void finish_report(std::size_t image_bytes, StartupReport& report);
  double page_transfer_ms(std::size_t bytes) const;
  /// Rebuilds the attached detector's CFI set against the image just
  /// programmed and clears its dynamic state (no-op when none attached).
  void sync_detector(std::span<const std::uint8_t> image);
  /// Clears the attached detector's dynamic state for a plain reset.
  void reset_detector();

  ExternalFlash& flash_;
  sim::Board& board_;
  MasterConfig config_;
  support::Rng rng_;
  support::FaultPlane* faults_ = nullptr;
  detect::Engine* detector_ = nullptr;
  const detect::PolicySet* policy_ = nullptr;
  std::uint32_t text_end_ = 0;  ///< of the loaded container (CFI sweep cap)
  std::uint32_t boots_ = 0;
  std::uint32_t randomizations_ = 0;
  std::uint64_t attacks_detected_ = 0;
  std::uint64_t last_feed_seen_ = 0;
  std::uint64_t last_feed_cycle_ = 0;
  std::optional<StartupReport> last_startup_;
  std::vector<std::size_t> current_permutation_;
  support::Bytes last_good_image_;  ///< last image that passed full verify
  /// Layout of last_good_image_ (blob order): what the policy, which names
  /// functions by blob index, is materialized against after every pass —
  /// including a degrade, where the stale layout still matches the stale
  /// image.
  std::vector<std::uint32_t> last_good_addrs_;
  std::vector<std::uint32_t> last_good_sizes_;
  MasterHealth health_state_ = MasterHealth::kHealthy;
  ReflashHealth health_;
};

}  // namespace mavr::defense
