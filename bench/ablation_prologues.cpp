// Ablation for the paper's §VI-B1 call-prologue discussion: with
// -mcall-prologues, most register-save/restore gadget material collapses
// into one shared blob with hundreds of inbound references — a
// location-leak risk — and the LDI-encoded continuation pointers defeat
// the patcher. MAVR therefore rebuilds everything with
// -mno-call-prologues.
#include <cstdio>

#include "attack/gadgets.hpp"
#include "avr/walk.hpp"
#include "bench_util.hpp"

namespace {

// Counts JMP/CALL instructions targeting [lo, hi) byte addresses.
std::uint32_t count_refs(const mavr::toolchain::Image& image,
                         std::uint32_t lo, std::uint32_t hi) {
  using mavr::avr::Op;
  std::uint32_t refs = 0;
  mavr::avr::for_each_instr(
      std::span(image.bytes).first(image.text_end), 0,
      [&](std::uint32_t, const mavr::avr::Instr& in) {
        if (in.op != Op::Jmp && in.op != Op::Call) return;
        const std::uint32_t target = static_cast<std::uint32_t>(in.target) * 2;
        if (target >= lo && target < hi) ++refs;
      });
  return refs;
}

}  // namespace

int main() {
  using namespace mavr;
  bench::heading("Ablation — call-prologue consolidation (paper §VI-B1)");

  // ArduPlane-scale profile with a realistic share of register-heavy
  // functions (the ones -mcall-prologues consolidates). Size calibration
  // is disabled: this build exists only to compare gadget structure.
  firmware::AppProfile profile = firmware::arduplane(true);
  profile.canonical_save_fns = 110;
  profile.target_image_bytes = 0;
  const firmware::Firmware mavr_fw =
      firmware::generate(profile, toolchain::ToolchainOptions::mavr());
  toolchain::ToolchainOptions prologued = toolchain::ToolchainOptions::mavr();
  prologued.call_prologues = true;
  const firmware::Firmware stock_fw = firmware::generate(profile, prologued);

  attack::GadgetFinder mavr_scan(mavr_fw.image);
  attack::GadgetFinder stock_scan(stock_fw.image);

  std::printf("%-34s %-18s %-18s\n", "", "-mcall-prologues",
              "-mno-call-prologues");
  std::printf("%-34s %-18u %-18u\n", "pop-chain gadgets (>=4 pops)",
              stock_scan.census().pop_chain_gadgets,
              mavr_scan.census().pop_chain_gadgets);
  std::printf("%-34s %-18zu %-18zu\n", "LDI-encoded code pointers",
              stock_fw.image.ldi_code_pointers.size(),
              mavr_fw.image.ldi_code_pointers.size());

  const toolchain::Symbol* blob =
      stock_fw.image.find("__epilogue_restores__");
  if (blob != nullptr) {
    const std::uint32_t refs =
        count_refs(stock_fw.image, blob->addr, blob->addr + blob->size);
    std::printf("%-34s %-18u %-18s\n",
                "references to the shared blob", refs, "n/a");
    std::printf("\nthe consolidated blob at 0x%X concentrates the "
                "restore-gadget material and is\nreferenced %u times — the "
                "\"very useful gadget ... hundreds of references\" the\n"
                "paper warns leaks its location. The LDI code pointers "
                "additionally make the\nimage unrandomizable, so MAVR "
                "refuses it (see Randomizer.RefusesCallPrologueBuilds).\n",
                blob->addr, refs);
  }
  return 0;
}
