// Image metadata and the preprocessed symbol blob (the information the
// paper's preprocessing stage prepends to the HEX file, §VI-B2).
#include <gtest/gtest.h>

#include "avr/decode.hpp"
#include "toolchain/assembler.hpp"
#include "toolchain/disasm.hpp"
#include "toolchain/encode.hpp"
#include "toolchain/function_index.hpp"
#include "toolchain/image.hpp"
#include "toolchain/linker.hpp"

namespace mavr::toolchain {
namespace {

Image sample_image() {
  FunctionBuilder a("alpha");
  a.nop();
  a.ret();
  FunctionBuilder b("beta");
  b.ret();
  FunctionBuilder main_fn("main");
  main_fn.call("alpha");
  main_fn.call("beta");
  main_fn.ret();
  DataBuilder data;
  data.code_ptr_table("g_tbl", {CodeRef{"alpha", 0}, CodeRef{"beta", 0}});
  LinkInput in;
  in.functions.push_back(main_fn.take());
  in.functions.push_back(a.take());
  in.functions.push_back(b.take());
  in.data = data.take();
  return link(std::move(in));
}

TEST(FunctionIndex, ContainingBinarySearch) {
  const Image image = sample_image();
  const std::vector<Symbol> fns = image.functions();
  const SymbolBlob blob = SymbolBlob::from_image(image);
  const FunctionIndex index(blob.function_addrs, blob.function_sizes);
  const auto name_at = [&](std::uint32_t addr) -> std::string {
    const int i = index.containing(addr);
    return i < 0 ? "<none>" : fns[static_cast<std::size_t>(i)].name;
  };
  const Symbol* alpha = image.find("alpha");
  ASSERT_NE(alpha, nullptr);
  EXPECT_EQ(name_at(alpha->addr), "alpha");
  std::uint32_t offset = 99;
  index.containing(alpha->addr + 2, &offset);
  EXPECT_EQ(offset, 2u);
  EXPECT_EQ(name_at(alpha->addr + 2), "alpha");
  EXPECT_EQ(name_at(alpha->addr + alpha->size), "beta");
  // Address 0 is inside the vector table (an Object, not a function).
  EXPECT_EQ(name_at(0), "<none>");
  EXPECT_EQ(name_at(image.text_end + 1), "<none>");
}

TEST(FunctionIndex, BlobIndicesSurviveAnUnsortedLayout) {
  // A randomized layout keeps blob order while the blocks move: indices
  // name positions in the arrays given, not address ranks.
  const std::vector<std::uint32_t> addrs = {0x300, 0x100, 0x200};
  const std::vector<std::uint32_t> sizes = {0x40, 0x100, 0x10};
  const FunctionIndex index(addrs, sizes);
  std::uint32_t offset = 0;
  EXPECT_EQ(index.containing(0x1FE, &offset), 1);
  EXPECT_EQ(offset, 0xFEu);
  EXPECT_EQ(index.containing(0x200, &offset), 2);
  EXPECT_EQ(offset, 0u);
  EXPECT_EQ(index.containing(0x210), -1);  // the gap before 0x300
  EXPECT_EQ(index.containing(0x33E, &offset), 0);
  EXPECT_EQ(offset, 0x3Eu);
  EXPECT_EQ(index.containing(0x340), -1);
  EXPECT_EQ(index.containing(0xFF), -1);
  ASSERT_EQ(index.entries().size(), 3u);
  EXPECT_EQ(index.entries()[0].index, 1u);  // ascending by start
  // An empty range never shadows the function sharing its start.
  const FunctionIndex with_empty(std::vector<std::uint32_t>{0x100, 0x100},
                                 std::vector<std::uint32_t>{0x20, 0});
  EXPECT_EQ(with_empty.containing(0x110), 0);
  EXPECT_THROW(FunctionIndex(addrs, std::vector<std::uint32_t>{1}),
               support::PreconditionError);
}

TEST(Image, WordAccessors) {
  Image image = sample_image();
  const std::uint16_t before = image.word_at(0);
  image.set_word_at(0, 0x1234);
  EXPECT_EQ(image.word_at(0), 0x1234);
  image.set_word_at(0, before);
  EXPECT_EQ(image.word_at(0), before);
}

TEST(SymbolBlob, SerializeDeserializeRoundTrip) {
  const Image image = sample_image();
  const SymbolBlob blob = SymbolBlob::from_image(image);
  const SymbolBlob back = SymbolBlob::deserialize(blob.serialize());
  EXPECT_EQ(back.function_addrs, blob.function_addrs);
  EXPECT_EQ(back.function_sizes, blob.function_sizes);
  EXPECT_EQ(back.text_end, blob.text_end);
  EXPECT_EQ(back.first_movable, blob.first_movable);
  EXPECT_EQ(back.has_ldi_code_pointers, blob.has_ldi_code_pointers);
  ASSERT_EQ(back.pointer_slots.size(), blob.pointer_slots.size());
  for (std::size_t i = 0; i < blob.pointer_slots.size(); ++i) {
    EXPECT_EQ(back.pointer_slots[i].image_offset,
              blob.pointer_slots[i].image_offset);
    EXPECT_EQ(back.pointer_slots[i].width, blob.pointer_slots[i].width);
  }
}

TEST(SymbolBlob, AddressesAscendAndTile) {
  const Image image = sample_image();
  const SymbolBlob blob = SymbolBlob::from_image(image);
  for (std::size_t i = 1; i < blob.function_addrs.size(); ++i) {
    EXPECT_GT(blob.function_addrs[i], blob.function_addrs[i - 1]);
  }
  EXPECT_GT(blob.first_movable, 0u);  // vectors pinned below
}

TEST(SymbolBlob, CorruptionDetected) {
  const Image image = sample_image();
  support::Bytes wire = SymbolBlob::from_image(image).serialize();
  wire[6] ^= 0x01;
  EXPECT_THROW(SymbolBlob::deserialize(wire), support::DataError);
  support::Bytes truncated(wire.begin(), wire.begin() + 10);
  EXPECT_THROW(SymbolBlob::deserialize(truncated), support::DataError);
}

TEST(Disasm, ListingFormat) {
  const Image image = sample_image();
  const Symbol* main_sym = image.find("main");
  const auto lines = disassemble(
      std::span(image.bytes).subspan(main_sym->addr, main_sym->size),
      main_sym->addr);
  ASSERT_GE(lines.size(), 3u);  // call, call, ret
  EXPECT_EQ(lines[0].instr.op, avr::Op::Call);
  EXPECT_NE(lines[0].text.find("call"), std::string::npos);
  EXPECT_EQ(lines.back().instr.op, avr::Op::Ret);
  const std::string listing = format_listing(lines);
  EXPECT_NE(listing.find("ret"), std::string::npos);
}

TEST(Disasm, PaperStyleOperands) {
  using namespace mavr::toolchain;
  EXPECT_EQ(format_instr(avr::decode(enc_out(0x3e, 29), 0), 0),
            "out 0x3e, r29");
  EXPECT_EQ(format_instr(avr::decode(enc_std(true, 1, 5), 0), 0),
            "std Y+1, r5");
  EXPECT_EQ(format_instr(avr::decode(enc_pop(29), 0), 0), "pop r29");
  EXPECT_EQ(format_instr(avr::decode(enc_imm(avr::Op::Ldi, 24, 0xAB), 0), 0),
            "ldi r24, 0xAB");
  EXPECT_EQ(format_instr(avr::decode(enc_one_reg(avr::Op::Com, 24), 0), 0),
            "com r24");
  EXPECT_EQ(format_instr(avr::decode(enc_one_reg(avr::Op::Swap, 24), 0), 0),
            "swap r24");
  EXPECT_EQ(format_instr(avr::decode(enc_push(24), 0), 0), "push r24");
  EXPECT_EQ(format_instr(avr::decode(enc_adiw(avr::Op::Adiw, 28, 12), 0), 0),
            "adiw r28, 12");
  EXPECT_EQ(format_instr(avr::decode(enc_in(20, 0x3d), 0), 0),
            "in r20, 0x3d");
  EXPECT_EQ(format_instr(avr::decode(enc_no_operand(avr::Op::Nop), 0), 0),
            "nop");
  EXPECT_EQ(format_instr(avr::decode(enc_no_operand(avr::Op::Ret), 0), 0),
            "ret");
}

TEST(Disasm, TruncatedTailIsAWordNotAnInstruction) {
  // A CALL whose second word lies past the region. Decoding it with a
  // zero second word would print "call 0x0".
  const auto [call_lo, call_hi] = enc_abs_jump(avr::Op::Call, 0x82);
  support::Bytes code;
  support::ByteWriter w(code);
  w.u16_le(enc_no_operand(avr::Op::Nop));
  w.u16_le(call_lo);
  const auto lines = disassemble(code, 0x100);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].text, "nop");
  EXPECT_EQ(lines[1].byte_addr, 0x102u);
  EXPECT_EQ(lines[1].text, ".word 0x940e ; truncated");
  // With its second word present it is an ordinary call.
  w.u16_le(call_hi);
  EXPECT_EQ(disassemble(code, 0x100).back().text, "call 0x104");
}

TEST(Assembler, FixedOffsetOfRequiresFixedPrefix) {
  FunctionBuilder fn("f");
  fn.nop();
  Label l1 = fn.make_label();
  fn.bind(l1);
  fn.ret();
  EXPECT_EQ(fn.fixed_offset_of(l1), 1u);

  FunctionBuilder g("g");
  g.call("anything");  // relaxable -> offset not fixed
  Label l2 = g.make_label();
  g.bind(l2);
  EXPECT_THROW(g.fixed_offset_of(l2), support::PreconditionError);

  FunctionBuilder h("h");
  Label unbound = h.make_label();
  EXPECT_THROW(h.fixed_offset_of(unbound), support::PreconditionError);
}

}  // namespace
}  // namespace mavr::toolchain
