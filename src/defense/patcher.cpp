#include "defense/patcher.hpp"

#include <algorithm>
#include <cmath>

#include "avr/walk.hpp"
#include "support/error.hpp"
#include "toolchain/encode.hpp"
#include "toolchain/function_index.hpp"

namespace mavr::defense {

using toolchain::SymbolBlob;

std::size_t movable_count(const SymbolBlob& blob) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < blob.function_addrs.size(); ++i) {
    if (blob.function_addrs[i] >= blob.first_movable &&
        blob.function_addrs[i] + blob.function_sizes[i] <= blob.text_end) {
      ++n;
    }
  }
  return n;
}

std::vector<std::size_t> draw_permutation(const SymbolBlob& blob,
                                          support::Rng& rng) {
  return rng.permutation(movable_count(blob));
}

std::uint32_t padding_slack(const SymbolBlob& blob) {
  return blob.layout_end > blob.text_end ? blob.layout_end - blob.text_end
                                         : 0;
}

std::vector<std::uint32_t> draw_gaps(const SymbolBlob& blob,
                                     support::Rng& rng) {
  const std::size_t n = movable_count(blob);
  std::vector<std::uint32_t> gaps(n + 1, 0);
  // Multinomial distribution of slack/2 two-byte units over n+1 gaps.
  const std::uint32_t units = padding_slack(blob) / 2;
  for (std::uint32_t u = 0; u < units; ++u) {
    gaps[rng.below(gaps.size())] += 2;
  }
  return gaps;
}

double padding_entropy_bits(std::size_t n_blocks, std::uint32_t slack_bytes) {
  // log2 C(k + n, n) with k = slack/2 units and n+1 gap positions:
  // weak compositions of k into n+1 parts = C(k + n, n).
  const double k = slack_bytes / 2.0;
  const double n = static_cast<double>(n_blocks);
  const auto lg = [](double x) { return std::lgamma(x + 1.0); };
  return (lg(k + n) - lg(k) - lg(n)) / std::log(2.0);
}

RandomizeResult randomize_image(std::span<const std::uint8_t> image,
                                const SymbolBlob& blob,
                                const std::vector<std::size_t>& permutation,
                                const std::vector<std::uint32_t>& gaps) {
  MAVR_REQUIRE(!blob.has_ldi_code_pointers,
               "image contains LDI code pointers (-mcall-prologues build); "
               "MAVR requires -mno-call-prologues");
  MAVR_REQUIRE(blob.text_end <= image.size(), "blob/text size mismatch");

  // Identify the movable blocks (ascending) and validate contiguity:
  // aligned builds leave padding gaps that a block permutation cannot
  // preserve (MAVR requires the unaligned GCC 4.5.4 layout).
  std::vector<std::size_t> movable;
  for (std::size_t i = 0; i < blob.function_addrs.size(); ++i) {
    if (blob.function_addrs[i] >= blob.first_movable &&
        blob.function_addrs[i] + blob.function_sizes[i] <= blob.text_end) {
      movable.push_back(i);
    }
  }
  MAVR_REQUIRE(permutation.size() == movable.size(),
               "permutation size does not match movable function count");
  for (std::size_t k = 0; k + 1 < movable.size(); ++k) {
    MAVR_REQUIRE(blob.function_addrs[movable[k]] +
                         blob.function_sizes[movable[k]] ==
                     blob.function_addrs[movable[k + 1]],
                 "function blocks not contiguous (aligned build?)");
  }
  if (!movable.empty()) {
    MAVR_REQUIRE(blob.function_addrs[movable.back()] +
                         blob.function_sizes[movable.back()] ==
                     blob.text_end,
                 "movable region does not reach text end");
  }

  // Validate the gap vector against the reserved padding slack.
  const std::uint32_t slack = padding_slack(blob);
  std::vector<std::uint32_t> gap_before(movable.size() + 1, 0);
  if (!gaps.empty()) {
    MAVR_REQUIRE(gaps.size() == movable.size() + 1,
                 "gap vector must have one entry per block plus one");
    std::uint64_t total = 0;
    for (std::uint32_t g : gaps) {
      MAVR_REQUIRE(g % 2 == 0, "gaps must be even (word alignment)");
      total += g;
    }
    MAVR_REQUIRE(total == slack,
                 "gaps must exactly fill the reserved padding slack");
    gap_before = gaps;
  } else {
    gap_before.back() = slack;  // no padding requested: slack stays a tail
  }

  // Assign new addresses in permuted order, inserting the gaps.
  std::vector<std::uint32_t> new_addrs(blob.function_addrs.begin(),
                                       blob.function_addrs.end());
  std::uint32_t cursor = blob.first_movable;
  std::vector<std::size_t> new_order;  // blob indices in new layout order
  new_order.reserve(permutation.size());
  for (std::size_t slot = 0; slot < permutation.size(); ++slot) {
    cursor += gap_before[slot];
    const std::size_t idx = movable[permutation[slot]];
    new_order.push_back(idx);
    new_addrs[idx] = cursor;
    cursor += blob.function_sizes[idx];
  }
  cursor += gap_before.empty() ? 0 : gap_before.back();
  MAVR_CHECK(movable.empty() ||
                 cursor == std::max(blob.layout_end, blob.text_end),
             "permuted layout size mismatch");

  RandomizeResult result;
  result.new_addrs = std::move(new_addrs);

  // Maps an old text byte address to its new location through the binary
  // search over the old function addresses (the paper's operation for
  // trampoline targets, §VI-B3); identity for addresses outside any
  // function (vector table, data region).
  const toolchain::FunctionIndex old_index(blob.function_addrs,
                                           blob.function_sizes);
  const auto map = [&](std::uint32_t old_byte_addr, bool* was_mid) {
    std::uint32_t offset = 0;
    const int idx = old_index.containing(old_byte_addr, &offset);
    if (idx < 0) return old_byte_addr;
    if (offset != 0) *was_mid = true;
    return result.new_addrs[static_cast<std::size_t>(idx)] + offset;
  };

  // Lay the new image out: head (vectors + pinned code), then erased
  // flash over the whole layout region, then the permuted blocks; the
  // data region stays verbatim.
  result.image.assign(image.begin(), image.end());
  const std::uint32_t layout_end = std::max(blob.layout_end, blob.text_end);
  std::fill(result.image.begin() + blob.first_movable,
            result.image.begin() + layout_end, std::uint8_t{0xFF});
  for (std::size_t idx : new_order) {
    const std::uint32_t old_addr = blob.function_addrs[idx];
    const std::uint32_t size = blob.function_sizes[idx];
    const std::uint32_t dst = result.new_addrs[idx];
    std::copy(image.begin() + old_addr, image.begin() + old_addr + size,
              result.image.begin() + dst);
    if (dst != old_addr) ++result.moved_functions;
  }

  // Patch pass over the executable region of the *new* image. Blocks were
  // copied verbatim, so each instruction's encoded target still refers to
  // old addresses; walk each block knowing its old base so relative forms
  // can be validated too.
  struct Region {
    std::uint32_t new_base, old_base, size;
  };
  std::vector<Region> regions;
  regions.push_back(Region{0, 0, blob.first_movable});  // pinned head
  for (std::size_t idx : new_order) {
    regions.push_back(Region{result.new_addrs[idx], blob.function_addrs[idx],
                             blob.function_sizes[idx]});
  }

  for (const Region& region : regions) {
    const auto truncated = avr::for_each_instr(
        std::span<const std::uint8_t>(result.image)
            .subspan(region.new_base, region.size),
        region.old_base, [&](std::uint32_t old_pos, const avr::Instr& instr) {
          if (instr.op == avr::Op::Call || instr.op == avr::Op::Jmp) {
            const std::uint32_t pos =
                region.new_base + (old_pos - region.old_base);
            bool mid = false;
            const std::uint32_t new_target =
                map(static_cast<std::uint32_t>(instr.target) * 2, &mid);
            const auto [nw1, nw2] = toolchain::retarget_abs_jump(
                support::load_u16_le(result.image, pos), new_target / 2);
            support::store_u16_le(result.image, pos, nw1);
            support::store_u16_le(result.image, pos + 2, nw2);
            ++result.patched_abs_jumps;
            if (mid) ++result.mid_function_targets;
          } else if (instr.op == avr::Op::Rcall ||
                     (instr.op == avr::Op::Rjmp && region.old_base != 0)) {
            // Relative transfers must stay inside their block; a short call
            // crossing blocks means the image was linked with relaxation.
            const std::int64_t target_old =
                static_cast<std::int64_t>(old_pos) / 2 + 1 + instr.target;
            const std::int64_t lo = region.old_base / 2;
            const std::int64_t hi = (region.old_base + region.size) / 2;
            MAVR_REQUIRE(target_old >= lo && target_old < hi,
                         "relaxed RCALL/RJMP crosses a function boundary; "
                         "MAVR requires --no-relax");
          }
        });
    // Patching a cut-off CALL/JMP would write into the next block.
    if (truncated) {
      throw support::DataError(
          "function block ends inside a 32-bit instruction");
    }
  }

  // Patch the recorded function-pointer slots (data-init region offsets
  // are unchanged because the permutation preserves the text extent).
  for (const toolchain::PointerSlot& slot : blob.pointer_slots) {
    MAVR_REQUIRE(slot.image_offset + slot.width <= result.image.size(),
                 "pointer slot out of range");
    std::uint32_t word_addr =
        support::load_u16_le(result.image, slot.image_offset);
    if (slot.width == 3) {
      word_addr |= static_cast<std::uint32_t>(
                       result.image[slot.image_offset + 2])
                   << 16;
    }
    bool mid = false;
    const std::uint32_t new_byte = map(word_addr * 2, &mid);
    const std::uint32_t new_word = new_byte / 2;
    if (slot.width == 2) {
      MAVR_REQUIRE(new_word <= 0xFFFF,
                   "2-byte pointer slot target moved beyond 128 KiB");
    }
    support::store_u16_le(result.image, slot.image_offset,
                          static_cast<std::uint16_t>(new_word & 0xFFFF));
    if (slot.width == 3) {
      result.image[slot.image_offset + 2] =
          static_cast<std::uint8_t>(new_word >> 16);
    }
    ++result.patched_pointers;
    if (mid) ++result.mid_function_targets;
  }

  return result;
}

RandomizeResult randomize_image(std::span<const std::uint8_t> image,
                                const SymbolBlob& blob, support::Rng& rng) {
  const std::vector<std::size_t> permutation = draw_permutation(blob, rng);
  if (padding_slack(blob) > 0) {
    return randomize_image(image, blob, permutation, draw_gaps(blob, rng));
  }
  return randomize_image(image, blob, permutation);
}

}  // namespace mavr::defense
