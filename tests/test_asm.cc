// Assembler tests: directives, labels, pseudo-instruction expansion,
// symbol resolution, error reporting, and end-to-end image layout.

#include <gtest/gtest.h>

#include "asm/assembler.h"
#include "common/log.h"
#include "isa/disasm.h"
#include "mem/memory.h"

namespace xloops {
namespace {

Instruction
instAt(const Program &prog, size_t index)
{
    return Instruction::decode(prog.text.at(index));
}

TEST(Assembler, MinimalProgram)
{
    const Program prog = assemble("  halt\n");
    ASSERT_EQ(prog.text.size(), 1u);
    EXPECT_EQ(instAt(prog, 0).op, Op::HALT);
    EXPECT_EQ(prog.entry, textBaseDefault);
}

TEST(Assembler, CommentsAndBlankLines)
{
    const Program prog = assemble(
        "# leading comment\n"
        "\n"
        "  add r1, r2, r3   # trailing\n"
        "  halt ; alt comment\n");
    ASSERT_EQ(prog.text.size(), 2u);
    EXPECT_EQ(instAt(prog, 0).op, Op::ADD);
}

TEST(Assembler, LabelsResolveForwardAndBackward)
{
    const Program prog = assemble(
        "top:\n"
        "  beq r1, r2, done\n"
        "  j top\n"
        "done:\n"
        "  halt\n");
    const Instruction beq = instAt(prog, 0);
    EXPECT_EQ(beq.imm, 2);   // two words forward
    const Instruction jal = instAt(prog, 1);
    EXPECT_EQ(jal.op, Op::JAL);
    EXPECT_EQ(jal.imm, -1);
    EXPECT_EQ(prog.symbol("top"), textBaseDefault);
    EXPECT_EQ(prog.symbol("done"), textBaseDefault + 8);
}

TEST(Assembler, LiSmallExpandsToAddi)
{
    const Program prog = assemble("  li r4, -100\n  halt\n");
    const Instruction inst = instAt(prog, 0);
    EXPECT_EQ(inst.op, Op::ADDI);
    EXPECT_EQ(inst.rd, 4);
    EXPECT_EQ(inst.rs1, 0);
    EXPECT_EQ(inst.imm, -100);
}

TEST(Assembler, LiLargeExpandsToLuiOri)
{
    const Program prog = assemble("  li r4, 0x12345678\n  halt\n");
    ASSERT_EQ(prog.text.size(), 3u);
    EXPECT_EQ(instAt(prog, 0).op, Op::LUI);
    EXPECT_EQ(instAt(prog, 1).op, Op::ORI);
    // Verify composition: lui shifts by 13.
    const u32 value = 0x12345678;
    EXPECT_EQ((static_cast<u32>(instAt(prog, 0).imm) << 13) |
                  static_cast<u32>(instAt(prog, 1).imm),
              value);
}

TEST(Assembler, LaAlwaysTwoInstructions)
{
    const Program prog = assemble(
        "  la r5, buf\n"
        "  halt\n"
        "  .data\n"
        "buf: .word 7\n");
    ASSERT_EQ(prog.text.size(), 3u);
    const u32 addr = (static_cast<u32>(instAt(prog, 0).imm) << 13) |
                     static_cast<u32>(instAt(prog, 1).imm);
    EXPECT_EQ(addr, prog.symbol("buf"));
}

TEST(Assembler, DataDirectives)
{
    const Program prog = assemble(
        "  halt\n"
        "  .data\n"
        "a:  .word 1, 2, -3\n"
        "b:  .space 8\n"
        "c:  .byte 1, 2\n"
        "    .align 4\n"
        "d:  .word a\n");
    MainMemory mem;
    prog.loadInto(mem);
    const Addr a = prog.symbol("a");
    EXPECT_EQ(mem.readWord(a), 1u);
    EXPECT_EQ(mem.readWord(a + 4), 2u);
    EXPECT_EQ(static_cast<i32>(mem.readWord(a + 8)), -3);
    const Addr b = prog.symbol("b");
    EXPECT_EQ(b, a + 12);
    const Addr c = prog.symbol("c");
    EXPECT_EQ(c, b + 8);
    const Addr d = prog.symbol("d");
    EXPECT_EQ(d % 4, 0u);
    EXPECT_EQ(mem.readWord(d), a);  // .word of a symbol stores its address
}

TEST(Assembler, FloatDirective)
{
    const Program prog = assemble(
        "  halt\n"
        "  .data\n"
        "f: .float 1.5, -0.25\n");
    MainMemory mem;
    prog.loadInto(mem);
    EXPECT_FLOAT_EQ(mem.readFloat(prog.symbol("f")), 1.5f);
    EXPECT_FLOAT_EQ(mem.readFloat(prog.symbol("f") + 4), -0.25f);
}

TEST(Assembler, LoadStoreOperands)
{
    const Program prog = assemble(
        "  lw r1, 8(r2)\n"
        "  sw r1, -4(r3)\n"
        "  halt\n");
    const Instruction lw = instAt(prog, 0);
    EXPECT_EQ(lw.rd, 1);
    EXPECT_EQ(lw.rs1, 2);
    EXPECT_EQ(lw.imm, 8);
    const Instruction sw = instAt(prog, 1);
    EXPECT_EQ(sw.rs2, 1);
    EXPECT_EQ(sw.rs1, 3);
    EXPECT_EQ(sw.imm, -4);
}

TEST(Assembler, AmoSyntax)
{
    const Program prog = assemble("  amoadd r3, r7, (r8)\n  halt\n");
    const Instruction amo = instAt(prog, 0);
    EXPECT_EQ(amo.op, Op::AMOADD);
    EXPECT_EQ(amo.rd, 3);
    EXPECT_EQ(amo.rs2, 7);
    EXPECT_EQ(amo.rs1, 8);
}

TEST(Assembler, XloopEncodesBackwardBodyAndHint)
{
    const Program prog = assemble(
        "body:\n"
        "  add r3, r3, r4\n"
        "  xloop.uc r1, r2, body\n"
        "  xloop.or r1, r2, body, nohint\n"
        "  halt\n");
    const Instruction uc = instAt(prog, 1);
    EXPECT_EQ(uc.op, Op::XLOOP_UC);
    EXPECT_EQ(uc.imm, -1);
    EXPECT_TRUE(uc.hint);
    const Instruction orr = instAt(prog, 2);
    EXPECT_EQ(orr.op, Op::XLOOP_OR);
    EXPECT_EQ(orr.imm, -2);
    EXPECT_FALSE(orr.hint);
}

TEST(Assembler, PseudoBranchesAndMov)
{
    const Program prog = assemble(
        "top:\n"
        "  mov r1, r2\n"
        "  beqz r1, top\n"
        "  bnez r1, top\n"
        "  bgt r1, r2, top\n"
        "  ble r1, r2, top\n"
        "  halt\n");
    EXPECT_EQ(instAt(prog, 0).op, Op::ADDI);
    EXPECT_EQ(instAt(prog, 1).op, Op::BEQ);
    EXPECT_EQ(instAt(prog, 1).rs2, 0);
    EXPECT_EQ(instAt(prog, 2).op, Op::BNE);
    // bgt r1,r2 -> blt r2,r1
    EXPECT_EQ(instAt(prog, 3).op, Op::BLT);
    EXPECT_EQ(instAt(prog, 3).rs1, 2);
    EXPECT_EQ(instAt(prog, 3).rs2, 1);
    EXPECT_EQ(instAt(prog, 4).op, Op::BGE);
}

TEST(AssemblerErrors, UnknownMnemonic)
{
    EXPECT_THROW(assemble("  frobnicate r1\n"), FatalError);
}

TEST(AssemblerErrors, UndefinedSymbol)
{
    EXPECT_THROW(assemble("  j nowhere\n  halt\n"), FatalError);
}

TEST(AssemblerErrors, DuplicateLabel)
{
    EXPECT_THROW(assemble("a:\n  nop\na:\n  halt\n"), FatalError);
}

TEST(AssemblerErrors, WrongOperandCount)
{
    EXPECT_THROW(assemble("  add r1, r2\n"), FatalError);
    // Pseudo-ops too: a short operand list must be a FatalError, not
    // an escaped std::out_of_range that aborts the CLIs.
    for (const char *src :
         {"  mov r12,\n", "  beqz r1\n", "  j\n", "  bnez\n",
          "  bgt r1, r2\n", "  ble r1\n", "  not r1\n", "  neg r1\n",
          "  li r1\n", "  la r1\n"})
        EXPECT_THROW(assemble(src), FatalError) << src;
}

TEST(AssemblerErrors, XloopForwardLabel)
{
    EXPECT_THROW(assemble("  xloop.uc r1, r2, later\nlater:\n  halt\n"),
                 FatalError);
}

TEST(AssemblerErrors, RegisterOutOfRange)
{
    EXPECT_THROW(assemble("  add r32, r1, r2\n"), FatalError);
}

TEST(AssemblerErrors, InstructionInDataSection)
{
    EXPECT_THROW(assemble("  .data\n  add r1, r2, r3\n"), FatalError);
}

TEST(AssemblerErrors, MessageIncludesLineNumber)
{
    try {
        assemble("  nop\n  nop\n  bogus r1\n");
        FAIL() << "expected FatalError";
    } catch (const FatalError &error) {
        EXPECT_NE(std::string(error.what()).find("line 3"),
                  std::string::npos)
            << error.what();
    }
}

TEST(Program, FetchOutsideTextThrows)
{
    const Program prog = assemble("  halt\n");
    EXPECT_THROW(prog.fetch(prog.textBase + 4), FatalError);
    EXPECT_THROW(prog.fetch(prog.textBase - 4), FatalError);
    EXPECT_NO_THROW(prog.fetch(prog.textBase));
}

TEST(Program, DisassembleRoundTripThroughAssembler)
{
    const Program prog = assemble(
        "body:\n"
        "  lw r6, 0(r5)\n"
        "  add r6, r6, r7\n"
        "  sw r6, 0(r5)\n"
        "  addiu.xi r5, 4\n"
        "  xloop.uc r1, r2, body\n"
        "  halt\n");
    // Every word must decode and disassemble without throwing.
    for (size_t i = 0; i < prog.text.size(); i++) {
        const Instruction inst = instAt(prog, i);
        EXPECT_FALSE(disassemble(inst).empty());
    }
}

} // namespace
} // namespace xloops
