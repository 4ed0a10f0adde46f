// On-board runtime intrusion detection (DESIGN.md §10).
//
// The paper argues (§IV-D, §VII) that V2/V3 are *stealthy*: by repairing
// the smashed stack slots and returning cleanly they evade the obvious
// stack-corruption checks that catch a traditional ROP chain, leaving
// randomization as the only defense. This module builds exactly the
// detection layer that argument is about — four composable detectors fed
// from the avr::Tracer hooks in Cpu::step — so the claim can be measured
// instead of asserted:
//
//  * shadow stack    — mirrors every CALL/IRQ push and flags a RET whose
//    popped target differs from the mirrored value. The ROP pivot's first
//    ret pops a gadget address no call pushed, so this catches V1, V2 and
//    V3 at the pivot itself.
//  * SP bounds       — edge-triggered monitor on the legal stack region
//    [RAMEND - reserve + 1, RAMEND]. The V3 trampoline pivots SP into
//    unused low SRAM and must cross the floor; the V2 pivot lands *inside*
//    the legal region (numerically at the victim frame's own floor — see
//    trace/watchpoints.hpp), which is precisely why SP bounds alone cannot
//    catch it.
//  * return-edge CFI — validates every RET target against the set of
//    call-site successors recovered by linear disassembly of the programmed
//    image (AVR's two-byte alignment makes the sweep reliable; same
//    technique as attack::GadgetFinder). Gadget entry points are not call
//    successors, so all three variants trip it. RETI is exempt: interrupts
//    return to arbitrary interrupted PCs.
//  * canary / stack-slot integrity — remembers the 3 return-address bytes
//    each CALL/IRQ pushes and re-checks them against memory only when the
//    core faults (crash-time forensics over live frames plus a bounded
//    ring of recently freed ones). V1 leaves its smashed slot behind and
//    crashes → caught; V2/V3 never fault and their epilogue pops are
//    deliberately *not* verified at frame-free time — the stealthy chain's
//    clean return would be indistinguishable there from the repair the
//    paper describes, and checking it would contradict the detector this
//    models ("what the paper says catches V1 but not V2").
//
// The engine is an avr::Tracer: arm() claims the Cpu's tracer slot.
// Verdicts latch (tripped()) until reset_dynamic(); the master processor
// polls tripped() in its watchdog service and answers a trip with the same
// reflash ladder it uses for crash/quiet detection (defense/master.cpp).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "avr/cpu.hpp"
#include "detect/policy.hpp"

namespace mavr::detect {

/// Detector identity carried by every verdict.
enum class Detector : std::uint8_t {
  kCanary,
  kShadowStack,
  kSpBounds,
  kReturnCfi,
  kPolicyIo,   ///< derived policy: store to I/O outside the function's set
  kPolicyRet,  ///< derived policy: ret target outside the function's sites
};

/// Bitmask selecting which detectors an Engine arms.
inline constexpr unsigned kDetectNone = 0;
inline constexpr unsigned kDetectCanary = 1u << 0;
inline constexpr unsigned kDetectShadowStack = 1u << 1;
inline constexpr unsigned kDetectSpBounds = 1u << 2;
inline constexpr unsigned kDetectReturnCfi = 1u << 3;
/// Analysis-derived per-function policy (I/O privilege + refined return
/// sites). Deliberately *not* part of kDetectAll: it only arms once a
/// MaterializedPolicy has been loaded, and the generic set's semantics
/// (and every test pinning them) stay untouched.
inline constexpr unsigned kDetectPolicy = 1u << 4;
inline constexpr unsigned kDetectAll =
    kDetectCanary | kDetectShadowStack | kDetectSpBounds | kDetectReturnCfi;

const char* detector_name(Detector detector);

/// Human/CSV form of a detector mask: "canary+shadow+sp-bounds+cfi",
/// "none" for the empty set.
std::string detector_set_name(unsigned mask);

/// Parses a comma-separated detector list ("shadow,cfi"), or the words
/// "all" / "none". Returns nullopt on any unknown token.
std::optional<unsigned> parse_detector_set(std::string_view text);

/// One detection event.
struct Verdict {
  Detector detector = Detector::kCanary;
  std::uint64_t cycle = 0;     ///< Cpu cycle count when the verdict fired
  std::uint32_t pc_words = 0;  ///< PC of the offending instruction
  std::uint32_t value = 0;     ///< detector-specific: bad target / SP / slot
  const char* reason = "";     ///< static description (no allocation in hooks)
  bool operator==(const Verdict&) const = default;
};

/// The stack reserve, the freed-frame ring and the verdict log cap are
/// fixed: kStackReserveBytes and kMaxVerdicts in engine.cpp,
/// Engine::kFreedRing below.
struct EngineConfig {
  unsigned detectors = kDetectAll;
};

class Engine : public avr::Tracer {
 public:
  /// Recently-freed frame records kept for crash-time canary forensics.
  static constexpr std::size_t kFreedRing = 16;

  /// One pushed return address the canary detector remembers: the slot's
  /// data-space address and the bytes the hardware pushed there.
  struct FrameRecord {
    std::uint16_t slot = 0;      ///< lowest address of the 3-byte slot
    std::uint8_t bytes[3] = {};  ///< as stored (big-endian toward ascending)
    bool operator==(const FrameRecord&) const = default;
  };

  /// Everything a flight changes. The default value is a new engine's.
  /// reset_dynamic() returns the per-run part to it; the verdict log and
  /// the trip count are lifetime state and survive. The CFI set, the
  /// policy and the configuration are not in it: the master rebuilds
  /// them from every image it programs.
  struct State {
    std::vector<std::uint32_t> shadow;  ///< mirrored return addresses
    std::vector<FrameRecord> frames;    ///< live frames, outermost first
    std::array<FrameRecord, kFreedRing> freed{};  ///< ring of freed frames
    std::size_t freed_next = 0;                   ///< ring cursor
    bool tripped = false;                         ///< the tripped() latch
    std::vector<Verdict> verdicts;  ///< capped at kMaxVerdicts
    std::uint64_t total_trips = 0;  ///< uncapped
  };

  explicit Engine(const EngineConfig& config = {});

  /// Claims `cpu`'s tracer slot and resets dynamic state. The engine must
  /// outlive the attachment (or be disarm()ed first).
  void arm(avr::Cpu& cpu);
  void disarm();

  /// (Re)builds the return-edge CFI target set by linear disassembly of
  /// the image actually programmed — randomization permutes the call
  /// sites, so the master rebuilds after every reflash. `text_end` caps
  /// the sweep (bytes); it survives randomization unchanged.
  void rebuild(std::span<const std::uint8_t> image, std::uint32_t text_end);

  /// Loads an analysis-derived per-function policy bound to the image
  /// currently programmed (see detect::MaterializedPolicy). The policy
  /// detectors only fire while kDetectPolicy is armed *and* a non-empty
  /// policy is loaded; the master re-materializes and re-loads after
  /// every reflash, exactly like the CFI rebuild.
  void load_policy(MaterializedPolicy policy) {
    policy_ = std::move(policy);
  }
  void clear_policy() { policy_ = MaterializedPolicy{}; }

  /// Clears per-run state (shadow stack, frame records, SP edge state,
  /// the tripped() latch) for a board reset/reflash. The verdict log and
  /// total_trips() survive so campaigns can attribute a detection after
  /// the master's recovery already cleared the latch.
  void reset_dynamic();

  /// True once any detector fired since the last reset_dynamic().
  bool tripped() const { return state_.tripped; }
  /// Verdicts fired over the engine's lifetime (capped at kMaxVerdicts).
  const std::vector<Verdict>& verdicts() const { return state_.verdicts; }
  /// Total verdicts fired over the engine's lifetime (uncapped).
  std::uint64_t total_trips() const { return state_.total_trips; }

  const State& state() const { return state_; }
  /// Puts `state` back, for the image the engine was last rebuilt from.
  void restore(const State& state) { state_ = state; }

  unsigned detectors() const { return config_.detectors; }
  std::uint16_t stack_lo() const { return stack_lo_; }
  std::uint16_t stack_hi() const { return stack_hi_; }

  // --- avr::Tracer hooks ------------------------------------------------------
  void on_call(const avr::Cpu& cpu, std::uint32_t from_words,
               std::uint32_t to_words, std::uint32_t ret_words) override;
  void on_irq(const avr::Cpu& cpu, std::uint8_t slot,
              std::uint32_t from_words) override;
  void on_ret(const avr::Cpu& cpu, std::uint32_t from_words,
              std::uint32_t to_words, std::uint32_t raw_words,
              bool reti) override;
  void on_sp_change(const avr::Cpu& cpu, std::uint16_t old_sp,
                    std::uint16_t new_sp) override;
  void on_store(const avr::Cpu& cpu, std::uint32_t addr,
                std::uint8_t value) override;
  void on_fault(const avr::Cpu& cpu, const avr::FaultInfo& info) override;

 private:
  void record(Detector detector, const avr::Cpu& cpu, std::uint32_t pc_words,
              std::uint32_t value, const char* reason);
  void remember_frame(const avr::Cpu& cpu);
  bool cfi_valid(std::uint32_t raw_words) const;

  EngineConfig config_;
  avr::Cpu* cpu_ = nullptr;
  std::uint16_t stack_lo_ = 0;
  std::uint16_t stack_hi_ = 0;
  std::uint8_t push_bytes_ = 3;  ///< bytes one CALL pushes (McuSpec)

  State state_;

  // Return-edge CFI: bit per flash word that is a valid RET target.
  std::vector<std::uint64_t> cfi_bits_;
  std::uint32_t cfi_words_ = 0;  ///< sweep extent; 0 = no image built yet

  // Analysis-derived per-function policy (empty = none loaded).
  MaterializedPolicy policy_;
};

}  // namespace mavr::detect
