#include "detect/engine.hpp"

#include <algorithm>

#include "avr/walk.hpp"

namespace mavr::detect {

namespace {

/// Legal stack region is [RAMEND - kStackReserveBytes + 1, RAMEND].
constexpr std::uint16_t kStackReserveBytes = 512;
/// Recently-freed frame records kept for crash-time canary forensics.
constexpr std::size_t kFreedRing = 16;
static_assert(kFreedRing > 0, "the freed-frame ring needs a slot");
/// Verdict log cap (the tripped() latch and trip counter keep counting).
constexpr std::size_t kMaxVerdicts = 16;

}  // namespace

const char* detector_name(Detector detector) {
  switch (detector) {
    case Detector::kCanary: return "canary";
    case Detector::kShadowStack: return "shadow";
    case Detector::kSpBounds: return "sp-bounds";
    case Detector::kReturnCfi: return "cfi";
    case Detector::kPolicyIo: return "policy-io";
    case Detector::kPolicyRet: return "policy-ret";
  }
  return "?";
}

std::string detector_set_name(unsigned mask) {
  if ((mask & (kDetectAll | kDetectPolicy)) == 0) return "none";
  std::string out;
  const auto add = [&](unsigned bit, const char* name) {
    if (!(mask & bit)) return;
    if (!out.empty()) out += '+';
    out += name;
  };
  add(kDetectCanary, "canary");
  add(kDetectShadowStack, "shadow");
  add(kDetectSpBounds, "sp-bounds");
  add(kDetectReturnCfi, "cfi");
  add(kDetectPolicy, "policy");
  return out;
}

std::optional<unsigned> parse_detector_set(std::string_view text) {
  unsigned mask = 0;
  while (!text.empty()) {
    // Accept both separators so detector_set_name round-trips: "+" is the
    // display form, "," the conventional CLI list form.
    const std::size_t comma = text.find_first_of(",+");
    const std::string_view token = text.substr(0, comma);
    if (token == "canary") {
      mask |= kDetectCanary;
    } else if (token == "shadow") {
      mask |= kDetectShadowStack;
    } else if (token == "sp-bounds") {
      mask |= kDetectSpBounds;
    } else if (token == "cfi") {
      mask |= kDetectReturnCfi;
    } else if (token == "policy") {
      mask |= kDetectPolicy;
    } else if (token == "all") {
      mask |= kDetectAll;
    } else if (token == "none") {
      // contributes nothing; lets "none" select the empty set
    } else {
      return std::nullopt;
    }
    if (comma == std::string_view::npos) break;
    text.remove_prefix(comma + 1);
  }
  return mask;
}

Engine::Engine(const EngineConfig& config) : config_(config) {
  shadow_.reserve(64);
  frames_.reserve(64);
  reset_dynamic();
}

void Engine::arm(avr::Cpu& cpu) {
  cpu_ = &cpu;
  const avr::McuSpec& spec = cpu.spec();
  stack_hi_ = static_cast<std::uint16_t>(spec.ramend());
  stack_lo_ =
      static_cast<std::uint16_t>(spec.ramend() - kStackReserveBytes + 1);
  push_bytes_ = spec.pc_push_bytes;
  cpu.set_tracer(this);
  reset_dynamic();
}

void Engine::disarm() {
  if (cpu_ != nullptr && cpu_->tracer() == this) cpu_->set_tracer(nullptr);
  cpu_ = nullptr;
}

void Engine::rebuild(std::span<const std::uint8_t> image,
                     std::uint32_t text_end) {
  // Linear disassembly from address 0 (avr/walk.hpp): every
  // CALL/RCALL/ICALL/EICALL marks its successor word as a valid RET target.
  const std::uint32_t limit = std::min<std::uint32_t>(
      text_end, static_cast<std::uint32_t>(image.size()));
  cfi_words_ = limit / 2;
  cfi_bits_.assign((cfi_words_ + 63) / 64, 0);
  avr::for_each_instr(
      image.first(limit), 0, [&](std::uint32_t pos, const avr::Instr& in) {
        using avr::Op;
        if (in.op == Op::Call || in.op == Op::Rcall || in.op == Op::Icall ||
            in.op == Op::Eicall) {
          const std::uint32_t succ = pos / 2 + in.size_words;
          if (succ < cfi_words_) {
            cfi_bits_[succ / 64] |= std::uint64_t{1} << (succ % 64);
          }
        }
      });
}

void Engine::reset_dynamic() {
  shadow_.clear();
  frames_.clear();
  freed_.assign(kFreedRing, FrameRecord{});
  freed_next_ = 0;
  tripped_ = false;
}

void Engine::record(Detector detector, const avr::Cpu& cpu,
                    std::uint32_t pc_words, std::uint32_t value,
                    const char* reason) {
  tripped_ = true;
  ++total_trips_;
  if (verdicts_.size() >= kMaxVerdicts) return;
  Verdict v;
  v.detector = detector;
  v.cycle = cpu.cycles();
  v.pc_words = pc_words;
  v.value = value;
  v.reason = reason;
  verdicts_.push_back(v);
}

void Engine::remember_frame(const avr::Cpu& cpu) {
  // Fires with the return address already pushed: SP points below the
  // slot, whose lowest byte address is SP+1. Record the bytes as stored
  // rather than re-deriving the layout — whatever the hardware pushed is
  // what an untouched slot must still hold.
  FrameRecord frame;
  frame.slot = static_cast<std::uint16_t>(cpu.sp() + 1);
  for (unsigned i = 0; i < push_bytes_ && i < 3; ++i) {
    frame.bytes[i] =
        cpu.data().raw(static_cast<std::uint32_t>(frame.slot) + i);
  }
  frames_.push_back(frame);
}

bool Engine::cfi_valid(std::uint32_t raw_words) const {
  if (raw_words >= cfi_words_) return false;
  return (cfi_bits_[raw_words / 64] >> (raw_words % 64)) & 1;
}

void Engine::on_call(const avr::Cpu& cpu, std::uint32_t from_words,
                     std::uint32_t to_words, std::uint32_t ret_words) {
  (void)from_words, (void)to_words;
  if (config_.detectors & kDetectShadowStack) shadow_.push_back(ret_words);
  if (config_.detectors & kDetectCanary) remember_frame(cpu);
}

void Engine::on_irq(const avr::Cpu& cpu, std::uint8_t slot,
                    std::uint32_t from_words) {
  (void)slot;
  if (config_.detectors & kDetectShadowStack) shadow_.push_back(from_words);
  if (config_.detectors & kDetectCanary) remember_frame(cpu);
}

void Engine::on_ret(const avr::Cpu& cpu, std::uint32_t from_words,
                    std::uint32_t to_words, std::uint32_t raw_words,
                    bool reti) {
  (void)to_words;
  if (config_.detectors & kDetectShadowStack) {
    // An empty shadow means the engine attached mid-run (or the program
    // returns past its entry frame) — nothing to compare against.
    if (!shadow_.empty()) {
      const std::uint32_t expected = shadow_.back();
      shadow_.pop_back();
      if (raw_words != expected) {
        record(Detector::kShadowStack, cpu, from_words, raw_words,
               "ret target differs from the mirrored call push");
      }
    }
  }
  if ((config_.detectors & kDetectReturnCfi) && cfi_words_ != 0 && !reti) {
    // RETI is exempt: interrupts return to whatever PC they preempted.
    if (!cfi_valid(raw_words)) {
      record(Detector::kReturnCfi, cpu, from_words, raw_words,
             "ret target is not a call-site successor");
    }
  }
  if ((config_.detectors & kDetectPolicy) && !policy_.empty() && !reti) {
    // Refined return-edge check: the popped target must be one of the
    // sites that actually call the function this RET lives in — a strict
    // subset of the generic CFI set, so anything the generic check flags
    // the policy flags too. A RET outside every function (padding, the
    // vector table) has no policy to check; ret-unbounded functions fall
    // back to the generic semantics handled above.
    const int fn = policy_.function_containing(from_words);
    if (fn >= 0 && !policy_.ret_unbounded(fn) &&
        !policy_.ret_allowed(fn, raw_words)) {
      record(Detector::kPolicyRet, cpu, from_words, raw_words,
             "ret target is not a known call site of this function");
    }
  }
}

void Engine::on_sp_change(const avr::Cpu& cpu, std::uint16_t old_sp,
                          std::uint16_t new_sp) {
  if (config_.detectors & kDetectSpBounds) {
    // Edge-triggered on leaving [stack_lo, stack_hi]: the V3 pivot's
    // `out SPH` already lands outside, the V2 pivot never does (it lands
    // numerically on the victim frame's own floor — watchpoints.hpp).
    const bool out = new_sp < stack_lo_ || new_sp > stack_hi_;
    const bool was_out = old_sp < stack_lo_ || old_sp > stack_hi_;
    if (out && !was_out) {
      record(Detector::kSpBounds, cpu, cpu.pc(), new_sp,
             "stack pointer left the legal stack region");
    }
  }
  if ((config_.detectors & kDetectCanary) && new_sp > old_sp) {
    // Frames whose slot bytes have all been popped are retired to the
    // freed ring *without* verification: the stealthy variants' repaired
    // epilogue pops are exactly what must not be flagged here (the slot
    // is only re-checked if the core later faults).
    while (!frames_.empty() &&
           frames_.back().slot + push_bytes_ - 1 <= new_sp) {
      freed_[freed_next_] = frames_.back();
      freed_next_ = (freed_next_ + 1) % freed_.size();
      frames_.pop_back();
    }
  }
}

void Engine::on_store(const avr::Cpu& cpu, std::uint32_t addr,
                      std::uint8_t value) {
  if (!(config_.detectors & kDetectPolicy) || policy_.empty()) return;
  // I/O privilege: only the window below SRAM is policed — stack and
  // ordinary data traffic (addr >= 0x200) passes untouched, so this check
  // costs one compare on the hot store path.
  if (addr >= kPolicyIoSpan) return;
  // The hook fires during the instruction, so cpu.pc() is the PC of the
  // store itself; the policy is keyed by the function containing it.
  const int fn = policy_.function_containing(cpu.pc());
  if (fn >= 0 && !policy_.io_allowed(fn, addr)) {
    record(Detector::kPolicyIo, cpu, cpu.pc(), addr,
           "store to an I/O register outside the function's privilege set");
  }
  (void)value;
}

void Engine::on_fault(const avr::Cpu& cpu, const avr::FaultInfo& info) {
  if (!(config_.detectors & kDetectCanary)) return;
  // Crash-time forensics: a traditional ROP chain (V1) smashes the return
  // slot, runs its chain off the corrupted stack and faults — the slot
  // still holds attacker bytes. Clean flights never fault, so this check
  // contributes no false positives by construction.
  const auto check = [&](const FrameRecord& frame) {
    if (frame.slot == 0) return;  // empty ring entry
    for (unsigned i = 0; i < push_bytes_ && i < 3; ++i) {
      if (cpu.data().raw(static_cast<std::uint32_t>(frame.slot) + i) !=
          frame.bytes[i]) {
        record(Detector::kCanary, cpu, info.pc_words, frame.slot,
               "return-address slot no longer holds the pushed bytes");
        return;
      }
    }
  };
  for (const FrameRecord& frame : frames_) check(frame);
  for (const FrameRecord& frame : freed_) check(frame);
}

}  // namespace mavr::detect
