// Cross-cutting coverage: statistic groups, the deterministic RNG,
// error-reporting helpers, and a full-opcode disassembly sweep.

#include <gtest/gtest.h>

#include "asm/assembler.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/stats.h"
#include "cpu/functional.h"
#include "isa/disasm.h"

namespace xloops {
namespace {

TEST(Stats, AddSetMergeDump)
{
    StatGroup a;
    a.add(Stat::Squashes);
    a.add(Stat::Squashes, 4);
    a.set(Stat::Cycles, 7);
    EXPECT_EQ(a.get(Stat::Squashes), 5u);
    EXPECT_EQ(a.get(Stat::Iterations), 0u);
    StatGroup b;
    b.add(Stat::Squashes, 10);
    b.add(Stat::Scans, 1);
    a.merge(b);
    EXPECT_EQ(a.get(Stat::Squashes), 15u);
    EXPECT_EQ(a.get(Stat::Scans), 1u);
    const std::string dump = a.dump("p.");
    EXPECT_NE(dump.find("p.squashes = 15"), std::string::npos);
    EXPECT_NE(dump.find("p.cycles = 7"), std::string::npos);
    a.clear();
    EXPECT_EQ(a.get(Stat::Squashes), 0u);
}

TEST(Rng, DeterministicAndInRange)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 1000; i++)
        ASSERT_EQ(a.next(), b.next());
    Rng c(42);
    for (int i = 0; i < 1000; i++) {
        const u32 v = c.nextBelow(17);
        ASSERT_LT(v, 17u);
    }
    Rng d(7);
    for (int i = 0; i < 1000; i++) {
        const i32 v = d.nextRange(-5, 5);
        ASSERT_GE(v, -5);
        ASSERT_LE(v, 5);
        const float f = d.nextFloat();
        ASSERT_GE(f, 0.0f);
        ASSERT_LT(f, 1.0f);
    }
}

TEST(Rng, ZeroSeedIsNotDegenerate)
{
    Rng z(0);
    EXPECT_NE(z.next(), 0u);
    EXPECT_NE(z.next(), z.next());
}

TEST(Logging, StrfConcatenatesMixedTypes)
{
    EXPECT_EQ(strf("a=", 1, " b=", 2.5, " c=", "x"), "a=1 b=2.5 c=x");
}

TEST(Logging, PanicAndFatalCarryMessages)
{
    try {
        panic("broken invariant");
        FAIL();
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find("broken invariant"),
                  std::string::npos);
    }
    try {
        fatal("user mistake");
        FAIL();
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("user mistake"),
                  std::string::npos);
    }
}

TEST(Disasm, EveryOpcodeRendersItsMnemonic)
{
    for (unsigned i = 0; i < numOpcodes; i++) {
        const auto op = static_cast<Op>(i);
        Instruction inst;
        inst.op = op;
        switch (opTraits(op).format) {
          case Format::X:
            inst.imm = -4;
            break;
          case Format::I:
          case Format::S:
          case Format::B:
            inst.imm = -1;
            break;
          default:
            break;
        }
        const std::string text = disassemble(inst, 0x2000);
        EXPECT_EQ(text.rfind(opTraits(op).mnemonic, 0), 0u)
            << "op " << i << ": " << text;
    }
}

TEST(Disasm, DataDependentExitVariant)
{
    const Instruction inst{.op = Op::XLOOP_ORM_DE, .rd = 1, .rs1 = 2,
                           .imm = -3, .hint = true};
    EXPECT_EQ(disassemble(inst, 0x100c),
              "xloop.orm.de r1, r2, 0x1000 [hint]");
}

TEST(Assembler, LiBoundaryValues)
{
    // 8191 fits addi; 8192 needs lui+ori; negative boundary too.
    const Program p1 = assemble("  li r4, 8191\n  halt\n");
    EXPECT_EQ(p1.text.size(), 2u);
    const Program p2 = assemble("  li r4, 8192\n  halt\n");
    EXPECT_EQ(p2.text.size(), 2u);  // lui alone: low 13 bits are zero
    const Program p2b = assemble("  li r4, 8193\n  halt\n");
    EXPECT_EQ(p2b.text.size(), 3u);  // lui + ori
    const Program p3 = assemble("  li r4, -8192\n  halt\n");
    EXPECT_EQ(p3.text.size(), 2u);
    // Round-trip the value through the executor.
    for (const i32 v : {8191, 8192, -8192, -8193, 0x7fffffff,
                        static_cast<i32>(0x80000000)}) {
        const Program p = assemble("  li r4, " + std::to_string(v) +
                                   "\n  la r5, o\n  sw r4, 0(r5)\n"
                                   "  halt\n  .data\no: .word 0\n");
        MainMemory mem;
        p.loadInto(mem);
        FunctionalExecutor exec(mem);
        exec.run(p);
        EXPECT_EQ(static_cast<i32>(mem.readWord(p.symbol("o"))), v) << v;
    }
}

TEST(Assembler, LaOfTextLabelAndJalr)
{
    // Computed jump through a register to a text label.
    const Program p = assemble(
        "  la r5, target\n"
        "  jalr r31, r5\n"
        "  halt\n"
        "target:\n"
        "  la r6, o\n"
        "  li r7, 99\n"
        "  sw r7, 0(r6)\n"
        "  halt\n"
        "  .data\no: .word 0\n");
    MainMemory mem;
    p.loadInto(mem);
    FunctionalExecutor exec(mem);
    exec.run(p);
    EXPECT_EQ(mem.readWord(p.symbol("o")), 99u);
}

} // namespace
} // namespace xloops
