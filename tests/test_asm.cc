// Assembler tests: directives, labels, pseudo-instruction expansion,
// symbol resolution, error reporting, and end-to-end image layout.

#include <gtest/gtest.h>

#include "asm/assembler.h"
#include "common/log.h"
#include "inputs.h"
#include "isa/disasm.h"
#include "kernels/kernel.h"
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

TEST(AssemblerErrors, ImmediateOutOfRangeNamesTheLine)
{
    // Each operand is range-checked before it narrows to its field:
    // an unsigned 19-bit lui, a signed 14-bit addi, and any literal
    // that would not even fit the parser's i64.
    for (const char *bad :
         {"lui r1, 600000", "lui r1, -1", "lui r1, 524288",
          "addi r1, r0, 4294967297", "addi r1, r0, 8192",
          "addi r1, r0, -8193", "lw r1, 9000(r2)", "sw r1, -9000(r2)",
          "addiu.xi r1, 8192", "li r1, 4294967296",
          "addi r1, r0, 99999999999999999999"}) {
        try {
            assemble(std::string("  nop\n  ") + bad + "\n  halt\n");
            ADD_FAILURE() << "accepted: " << bad;
        } catch (const FatalError &error) {
            EXPECT_NE(std::string(error.what()).find("asm line 2: "),
                      std::string::npos)
                << error.what();
        }
    }
    // The edges of each field still assemble.
    const Program prog = assemble(
        "  lui r1, 0\n  lui r1, 524287\n  addi r1, r0, 8191\n"
        "  addi r1, r0, -8192\n  li r1, 4294967295\n"
        "  li r1, -2147483648\n  halt\n");
    EXPECT_EQ(instAt(prog, 1).imm, 524287);
    EXPECT_EQ(instAt(prog, 3).imm, -8192);
}

TEST(AssemblerErrors, DataSegmentPastAddressSpaceNamesTheLine)
{
    // Checked in 64 bits before any byte is allocated: a huge .space
    // is not a std::bad_alloc, and a huge .align is not a silent
    // no-op (it pads to an address multiple, past the top).
    for (const char *bad :
         {"x: .space 1099511627775", "x: .space 4293918721",
          "x: .align 1099511627776"}) {
        try {
            assemble(std::string("  halt\n  .data\n") + bad + "\n");
            ADD_FAILURE() << "accepted: " << bad;
        } catch (const FatalError &error) {
            EXPECT_NE(std::string(error.what())
                          .find("asm line 3: ."),
                      std::string::npos)
                << error.what();
            EXPECT_NE(std::string(error.what()).find("past 0xffffffff"),
                      std::string::npos)
                << error.what();
        }
    }
    // The boundary, on a data segment 16 bytes below the top: 16
    // bytes fit, a 17th does not, whatever directive adds it.
    const Addr top16 = 0xfffffff0;
    EXPECT_NO_THROW(assemble("  halt\n  .data\n  .space 12\n  .word 1\n",
                             textBaseDefault, top16));
    EXPECT_NO_THROW(assemble("  halt\n  .data\n  .word 1\n  .align 16\n",
                             textBaseDefault, top16));
    for (const char *bad : {"  .space 17\n", "  .space 12\n  .word 1, 2\n",
                            "  .space 16\n  .byte 0\n",
                            "  .word 1\n  .align 8589934592\n"})
        EXPECT_THROW(assemble(std::string("  halt\n  .data\n") + bad,
                              textBaseDefault, top16),
                     FatalError)
            << bad;
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

/** The full message @p source fails with, or "" when it assembles. */
std::string
diagnostic(const std::string &source, Addr dataBase = dataBaseDefault)
{
    try {
        assemble(source, textBaseDefault, dataBase);
    } catch (const FatalError &error) {
        return error.what();
    }
    return "";
}

TEST(AssemblerErrors, EveryDiagnosticNamesItsLine)
{
    // One case (or more) per diagnostic site, each with its exact text.
    const std::pair<const char *, const char *> cases[] = {
        // operands
        {"  nop\n  add r1, r32, r2\n",
         "asm line 2: register r32 out of range"},
        {"  nop\n  addi r1, r0, 99999999999999999999\n",
         "asm line 2: number 99999999999999999999 out of range"},
        {"  amoadd r1, r2, (x)\n",
         "asm line 1: bad amo address operand (x)"},
        {"  lw r1, 4(x)\n", "asm line 1: bad base register in 4(x)"},
        // pseudo-ops: every operand form, then each literal check
        {"  li r1\n", "asm line 1: li needs rd, imm"},
        {"  la r1\n", "asm line 1: la needs rd, symbol"},
        {"  mov r12,\n", "asm line 1: mov needs rd, rs"},
        {"  j\n", "asm line 1: j needs label"},
        {"  beqz r1\n", "asm line 1: beqz needs rs, label"},
        {"  bnez\n", "asm line 1: bnez needs rs, label"},
        {"  bgt r1, r2\n", "asm line 1: bgt needs rs, rt, label"},
        {"  ble r1\n", "asm line 1: ble needs rs, rt, label"},
        {"  not r1\n", "asm line 1: not needs rd, rs"},
        {"  neg r1, r2, r3\n", "asm line 1: neg needs rd, rs"},
        {"  li r1, foo\n", "asm line 1: li needs rd, literal"},
        {"  nop\n  li r1, 4294967296\n",
         "asm line 2: li operand 4294967296 does not fit in 32 bits"},
        {"  la r1, 5\n", "asm line 1: la needs rd, symbol"},
        // bgt and ble read their second operand first
        {"  bgt r40, r41, x\n", "asm line 1: register r41 out of range"},
        // mnemonics and sections
        {"  frobnicate r1\n", "asm line 1: unknown mnemonic 'frobnicate'"},
        {"  .data\n  add r1, r2, r3\n",
         "asm line 2: instruction outside .text"},
        {"  .data\n  li r1, 1\n", "asm line 2: instruction outside .text"},
        {"  nop\n  .word 1\n", "asm line 2: data directive inside .text"},
        // directives
        {"  halt\n  .data\nx: .space 1099511627775\n",
         "asm line 3: .space of 1099511627775 bytes ends the data segment "
         "past 0xffffffff"},
        {"  halt\n  .data\nx: .align 1099511627776\n",
         "asm line 3: .align of 1099510579200 bytes ends the data segment "
         "past 0xffffffff"},
        {"  .data\n  .float abc\n", "asm line 2: bad float literal abc"},
        {"  .data\n  .float 1e99\n", "asm line 2: bad float literal 1e99"},
        {"  .data\n  .half 1, x\n", "asm line 2: bad .half literal x"},
        {"  .data\n  .byte 0x\n", "asm line 2: bad .byte literal 0x"},
        {"  .data\n  .space -1\n", "asm line 2: bad .space size"},
        {"  .data\n  .space 8 \n", "asm line 2: bad .space size"},
        {"  .data\n  .align 3\n", "asm line 2: bad .align"},
        {"  .frob\n", "asm line 1: unknown directive '.frob'"},
        {".L1: nop\n", "asm line 1: unknown directive '.L1:'"},
        // labels and symbols
        {"a:\n  nop\na: halt\n", "asm line 3: duplicate label 'a'"},
        {"  nop\n  j nowhere\n  halt\n",
         "asm line 2: undefined symbol 'nowhere'"},
        {"  halt\n  .data\n  .word 1, nowhere\n",
         "asm line 3: undefined symbol 'nowhere'"},
        {"  la r1, %hi:x\n", "asm line 1: undefined symbol '%hi:x'"},
        {"  lw r1, %lo:y(r2)\n", "asm line 1: undefined symbol 'y'"},
        // encoding
        {"  addi r1, r2, r3\n",
         "asm line 1: expected immediate or symbol operand"},
        {"  add r1, r2, 5\n", "asm line 1: expected register operand in add"},
        {"  beq r1, r2, 6\n", "asm line 1: misaligned branch target"},
        {"  nop\n  addi r1, r0, 8192\n",
         "asm line 2: addi operand 8192 out of range [-8192, 8191]"},
        {"  lui r1, -1\n",
         "asm line 1: lui operand -1 out of range [0, 524287]"},
        {"  add r1, r2\n", "asm line 1: add expects 3 operands, got 2"},
        {"  add r1, r2, r3, r4\n",
         "asm line 1: add expects 3 operands, got 4"},
        {"  amoadd r1, r2, r3\n",
         "asm line 1: amo needs (rN) address operand"},
        {"  lw r1, r2\n", "asm line 1: load needs offset(base) operand"},
        {"  sw r1, r2\n", "asm line 1: store needs offset(base) operand"},
        {"  xloop.uc r1, r2, later\nlater:\n  halt\n",
         "asm line 1: xloop body label must precede the xloop instruction"},
        // the first error in source order wins, and every pass-1
        // error precedes every encoding error
        {"  add r1, r2\n  frob\n", "asm line 2: unknown mnemonic 'frob'"},
        {"  j nowhere\n  .data\n  .word also_nowhere\n",
         "asm line 1: undefined symbol 'nowhere'"},
    };
    for (const auto &[source, message] : cases)
        EXPECT_EQ(diagnostic(source), std::string("fatal: ") + message)
            << source;

    // A data segment 16 bytes below the top: each data directive names
    // itself and its size when it would end past 0xffffffff.
    const Addr top16 = 0xfffffff0;
    const std::pair<const char *, const char *> top[] = {
        {"  .space 17\n", "asm line 3: .space of 17 bytes"},
        {"  .space 12\n  .word 1, 2\n", "asm line 4: .word of 4 bytes"},
        {"  .space 16\n  .byte 0\n", "asm line 4: .byte of 1 bytes"},
        {"  .space 15\n  .half 0\n", "asm line 4: .half of 2 bytes"},
        {"  .word 1\n  .align 8589934592\n",
         "asm line 4: .align of 4294967308 bytes"},
    };
    for (const auto &[body, prefix] : top)
        EXPECT_EQ(diagnostic(std::string("  halt\n  .data\n") + body, top16),
                  std::string("fatal: ") + prefix +
                      " ends the data segment past 0xffffffff")
            << body;
    // A .float's range error is reported as a bad literal: the check
    // runs inside the std::stof handler, which catches FatalError too.
    EXPECT_EQ(diagnostic("  halt\n  .data\n  .space 14\n  .float 0.5\n",
                         top16),
              "fatal: asm line 4: bad float literal 0.5");
}

TEST(Assembler, SyntaxSamplerAssembles)
{
    const Program prog = assemble(test::asmSampler);
    EXPECT_EQ(prog.symbol("_start"), textBaseDefault);
    EXPECT_EQ(prog.symbol("entry.0"), textBaseDefault);
    EXPECT_EQ(prog.symbol("start_2"), textBaseDefault);
    // whitespace inside an operand is dropped: 0 ( r7 ) is 0(r7)
    const Program spaced = assemble("  lw r16, 0 ( r7 )\n");
    const Program packed = assemble("  lw r16,0(r7)\n");
    EXPECT_EQ(spaced.text, packed.text);
    // CRLF line ends assemble like LF ones
    EXPECT_EQ(assemble("  add r1, r2, r3\r\n  halt\r\n").text,
              assemble("  add r1, r2, r3\n  halt\n").text);
}

/**
 * Hostile input: seeded byte mutants of every .s file in tests/asm, the
 * syntax sampler and five registry kernels either assemble or fail
 * with a FatalError; no other exception, and no crash.
 */
TEST(AssemblerHostileInput, MutantsAssembleOrFailCleanly)
{
    std::vector<std::pair<std::string, std::string>> sources;
    for (const auto &path : test::testFiles("asm", ".s"))
        sources.emplace_back(path.filename().string(), test::readFile(path));
    sources.emplace_back("sampler", test::asmSampler);
    for (const char *k : {"rgb2cmyk-uc", "adpcm-or", "dynprog-om",
                          "hsort-ua", "bfs-uc-db"})
        sources.emplace_back(k, kernelByName(k).source);
    ASSERT_GE(sources.size(), 9u);

    Rng rng(0x5eed);
    for (const auto &[name, source] : sources) {
        const auto runs = test::longDigitRuns(source);
        unsigned ran = 0;
        for (unsigned i = 0; i < 400; i++) {
            const std::string m = test::mutate(source, rng);
            if (test::longDigitRuns(m) != runs)
                continue;
            ran++;
            try {
                assemble(m);
            } catch (const FatalError &) {
            } catch (const std::exception &e) {
                ADD_FAILURE() << name << " mutant " << i << ": "
                              << e.what() << "\n" << m;
            }
        }
        EXPECT_GT(ran, 300u) << name;
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
