#include "toolchain/disasm.hpp"

#include <cstdio>
#include <optional>

#include "avr/walk.hpp"

namespace mavr::toolchain {

using avr::Instr;
using avr::Op;

namespace {

std::string fmt(const char* pattern, auto... args) {
  char buf[96];
  std::snprintf(buf, sizeof buf, pattern, args...);
  return buf;
}

}  // namespace

std::string format_instr(const Instr& in, std::uint32_t byte_addr) {
  const std::string name(avr::op_name(in.op));
  switch (in.op) {
    case Op::Invalid:
      return ".word <invalid>";
    case Op::Add: case Op::Adc: case Op::Sub: case Op::Sbc:
    case Op::And: case Op::Or: case Op::Eor: case Op::Mov:
    case Op::Cp: case Op::Cpc: case Op::Cpse: case Op::Mul:
      return fmt("%s r%u, r%u", name.c_str(), in.rd, in.rr);
    case Op::Movw:
      return fmt("movw r%u:r%u, r%u:r%u", in.rd + 1, in.rd, in.rr + 1, in.rr);
    case Op::Ldi: case Op::Cpi: case Op::Subi: case Op::Sbci:
    case Op::Andi: case Op::Ori:
      return fmt("%s r%u, 0x%02X", name.c_str(), in.rd, in.k);
    case Op::Com: case Op::Neg: case Op::Inc: case Op::Dec:
    case Op::Swap: case Op::Asr: case Op::Lsr: case Op::Ror:
    case Op::Push: case Op::Pop:
      return fmt("%s r%u", name.c_str(), in.rd);
    case Op::Adiw: case Op::Sbiw:
      return fmt("%s r%u, %u", name.c_str(), in.rd, in.k);
    case Op::In:
      return fmt("in r%u, 0x%02x", in.rd, in.k);
    case Op::Out:
      return fmt("out 0x%02x, r%u", in.k, in.rd);
    case Op::Lds:
      return fmt("lds r%u, 0x%04X", in.rd, in.k);
    case Op::Sts:
      return fmt("sts 0x%04X, r%u", in.k, in.rd);
    case Op::LddY:
      return fmt("ldd r%u, Y+%u", in.rd, in.k);
    case Op::LddZ:
      return fmt("ldd r%u, Z+%u", in.rd, in.k);
    case Op::StdY:
      return fmt("std Y+%u, r%u", in.k, in.rd);
    case Op::StdZ:
      return fmt("std Z+%u, r%u", in.k, in.rd);
    case Op::LdX: return fmt("ld r%u, X", in.rd);
    case Op::LdXInc: return fmt("ld r%u, X+", in.rd);
    case Op::LdXDec: return fmt("ld r%u, -X", in.rd);
    case Op::LdYInc: return fmt("ld r%u, Y+", in.rd);
    case Op::LdYDec: return fmt("ld r%u, -Y", in.rd);
    case Op::LdZInc: return fmt("ld r%u, Z+", in.rd);
    case Op::LdZDec: return fmt("ld r%u, -Z", in.rd);
    case Op::StX: return fmt("st X, r%u", in.rd);
    case Op::StXInc: return fmt("st X+, r%u", in.rd);
    case Op::StXDec: return fmt("st -X, r%u", in.rd);
    case Op::StYInc: return fmt("st Y+, r%u", in.rd);
    case Op::StYDec: return fmt("st -Y, r%u", in.rd);
    case Op::StZInc: return fmt("st Z+, r%u", in.rd);
    case Op::StZDec: return fmt("st -Z, r%u", in.rd);
    case Op::LpmR0: return "lpm";
    case Op::Lpm: return fmt("lpm r%u, Z", in.rd);
    case Op::LpmInc: return fmt("lpm r%u, Z+", in.rd);
    case Op::ElpmR0: return "elpm";
    case Op::Elpm: return fmt("elpm r%u, Z", in.rd);
    case Op::ElpmInc: return fmt("elpm r%u, Z+", in.rd);
    case Op::Rjmp:
    case Op::Rcall:
      return fmt("%s .%+d ; 0x%x", name.c_str(), in.target * 2,
                 byte_addr + 2 + in.target * 2);
    case Op::Jmp:
    case Op::Call:
      return fmt("%s 0x%x", name.c_str(),
                 static_cast<std::uint32_t>(in.target) * 2);
    case Op::Ijmp: case Op::Icall: case Op::Eijmp: case Op::Eicall:
    case Op::Ret: case Op::Reti: case Op::Nop: case Op::Sleep:
    case Op::Break: case Op::Wdr: case Op::Spm:
      return name;
    case Op::Brbs:
    case Op::Brbc: {
      static const char* set_names[] = {"brcs", "breq", "brmi", "brvs",
                                        "brlt", "brhs", "brts", "brie"};
      static const char* clr_names[] = {"brcc", "brne", "brpl", "brvc",
                                        "brge", "brhc", "brtc", "brid"};
      const char* n = (in.op == Op::Brbs) ? set_names[in.bit] : clr_names[in.bit];
      return fmt("%s .%+d ; 0x%x", n, in.target * 2,
                 byte_addr + 2 + in.target * 2);
    }
    case Op::Sbrc: case Op::Sbrs:
      return fmt("%s r%u, %u", name.c_str(), in.rd, in.bit);
    case Op::Sbic: case Op::Sbis:
    case Op::Sbi: case Op::Cbi:
      return fmt("%s 0x%02x, %u", name.c_str(), in.k, in.bit);
    case Op::Bset: case Op::Bclr:
      return fmt("%s %u", name.c_str(), in.bit);
    case Op::Bst: case Op::Bld:
      return fmt("%s r%u, %u", name.c_str(), in.rd, in.bit);
  }
  return name;
}

std::vector<DisasmLine> disassemble(std::span<const std::uint8_t> code,
                                    std::uint32_t base) {
  std::vector<DisasmLine> lines;
  const std::optional<std::uint32_t> truncated = avr::for_each_instr(
      code, base, [&](std::uint32_t addr, const Instr& in) {
        lines.push_back({addr, in, format_instr(in, addr)});
      });
  if (truncated) {
    lines.push_back(
        {*truncated, Instr{},
         fmt(".word 0x%04x ; truncated",
             support::load_u16_le(code, *truncated - base))});
  }
  return lines;
}

std::string format_listing(const std::vector<DisasmLine>& lines) {
  std::string out;
  for (const DisasmLine& line : lines) {
    out += fmt("%-8x%s\n", line.byte_addr, line.text.c_str());
  }
  return out;
}

}  // namespace mavr::toolchain
