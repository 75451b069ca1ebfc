// ExecCore / FunctionalExecutor tests: per-instruction semantics and
// whole-program golden-model runs, including traditional execution of
// XLOOPS binaries (xloop as branch, xi as add).

#include <gtest/gtest.h>

#include "asm/assembler.h"
#include "common/log.h"
#include "cpu/exec_core.h"
#include "cpu/functional.h"
#include "mem/memory.h"

namespace xloops {
namespace {

struct Ctx
{
    MainMemory mem;
    RegFile regs;

    StepResult
    step(const Instruction &inst, Addr pc = 0x1000)
    {
        return ExecCore::step(inst, pc, regs, mem);
    }
};

TEST(ExecCore, R0AlwaysZero)
{
    Ctx c;
    c.step({.op = Op::ADDI, .rd = 0, .rs1 = 0, .imm = 55});
    EXPECT_EQ(c.regs.get(0), 0u);
}

TEST(ExecCore, IntegerAlu)
{
    Ctx c;
    c.regs.set(1, 7);
    c.regs.set(2, static_cast<u32>(-3));
    c.step({.op = Op::ADD, .rd = 3, .rs1 = 1, .rs2 = 2});
    EXPECT_EQ(static_cast<i32>(c.regs.get(3)), 4);
    c.step({.op = Op::SUB, .rd = 3, .rs1 = 1, .rs2 = 2});
    EXPECT_EQ(c.regs.get(3), 10u);
    c.step({.op = Op::MUL, .rd = 3, .rs1 = 1, .rs2 = 2});
    EXPECT_EQ(static_cast<i32>(c.regs.get(3)), -21);
    c.step({.op = Op::SLT, .rd = 3, .rs1 = 2, .rs2 = 1});
    EXPECT_EQ(c.regs.get(3), 1u);
    c.step({.op = Op::SLTU, .rd = 3, .rs1 = 2, .rs2 = 1});
    EXPECT_EQ(c.regs.get(3), 0u);  // 0xfffffffd unsigned-greater than 7
}

TEST(ExecCore, DivRemSignsAndDivByZero)
{
    Ctx c;
    c.regs.set(1, static_cast<u32>(-7));
    c.regs.set(2, 2);
    c.step({.op = Op::DIV, .rd = 3, .rs1 = 1, .rs2 = 2});
    EXPECT_EQ(static_cast<i32>(c.regs.get(3)), -3);  // C truncation
    c.step({.op = Op::REM, .rd = 3, .rs1 = 1, .rs2 = 2});
    EXPECT_EQ(static_cast<i32>(c.regs.get(3)), -1);
    c.regs.set(2, 0);
    c.step({.op = Op::DIV, .rd = 3, .rs1 = 1, .rs2 = 2});
    EXPECT_EQ(c.regs.get(3), ~0u);
    c.step({.op = Op::REM, .rd = 3, .rs1 = 1, .rs2 = 2});
    EXPECT_EQ(c.regs.get(3), static_cast<u32>(-7));
}

TEST(ExecCore, DivRemOfIntMinByMinusOne)
{
    // RISC-V M: the overflowing quotient is the dividend, the
    // remainder 0 (host division would trap).
    Ctx c;
    c.regs.set(1, 0x80000000u);
    c.regs.set(2, ~0u);
    c.step({.op = Op::DIV, .rd = 3, .rs1 = 1, .rs2 = 2});
    EXPECT_EQ(c.regs.get(3), 0x80000000u);
    c.step({.op = Op::REM, .rd = 3, .rs1 = 1, .rs2 = 2});
    EXPECT_EQ(c.regs.get(3), 0u);
    c.regs.set(1, 7);  // any other dividend by -1 just negates
    c.step({.op = Op::DIV, .rd = 3, .rs1 = 1, .rs2 = 2});
    EXPECT_EQ(static_cast<i32>(c.regs.get(3)), -7);
    c.step({.op = Op::REM, .rd = 3, .rs1 = 1, .rs2 = 2});
    EXPECT_EQ(c.regs.get(3), 0u);
}

TEST(ExecCore, Shifts)
{
    Ctx c;
    c.regs.set(1, 0x80000001);
    c.step({.op = Op::SRLI, .rd = 2, .rs1 = 1, .imm = 1});
    EXPECT_EQ(c.regs.get(2), 0x40000000u);
    c.step({.op = Op::SRAI, .rd = 2, .rs1 = 1, .imm = 1});
    EXPECT_EQ(c.regs.get(2), 0xc0000000u);
    c.regs.set(3, 33);  // shift amounts wrap mod 32
    c.step({.op = Op::SLL, .rd = 2, .rs1 = 1, .rs2 = 3});
    EXPECT_EQ(c.regs.get(2), 0x00000002u);
}

TEST(ExecCore, MulhHighBits)
{
    Ctx c;
    c.regs.set(1, 0x40000000);
    c.regs.set(2, 8);
    c.step({.op = Op::MULH, .rd = 3, .rs1 = 1, .rs2 = 2});
    EXPECT_EQ(c.regs.get(3), 2u);
}

TEST(ExecCore, FloatArithmeticAndCompare)
{
    Ctx c;
    MainMemory scratch;
    scratch.writeFloat(0, 1.5f);
    c.regs.set(1, scratch.readWord(0));
    scratch.writeFloat(0, 2.25f);
    c.regs.set(2, scratch.readWord(0));
    c.step({.op = Op::FADD, .rd = 3, .rs1 = 1, .rs2 = 2});
    scratch.writeWord(0, c.regs.get(3));
    EXPECT_FLOAT_EQ(scratch.readFloat(0), 3.75f);
    c.step({.op = Op::FLT, .rd = 3, .rs1 = 1, .rs2 = 2});
    EXPECT_EQ(c.regs.get(3), 1u);
    c.step({.op = Op::FCVTWS, .rd = 3, .rs1 = 2});
    EXPECT_EQ(c.regs.get(3), 2u);  // truncation
    c.regs.set(4, static_cast<u32>(-7));
    c.step({.op = Op::FCVTSW, .rd = 3, .rs1 = 4});
    scratch.writeWord(0, c.regs.get(3));
    EXPECT_FLOAT_EQ(scratch.readFloat(0), -7.0f);
}

TEST(ExecCore, LoadsSignAndZeroExtend)
{
    Ctx c;
    c.mem.writeWord(0x100, 0xffffff80);
    c.regs.set(1, 0x100);
    c.step({.op = Op::LB, .rd = 2, .rs1 = 1, .imm = 0});
    EXPECT_EQ(static_cast<i32>(c.regs.get(2)), -128);
    c.step({.op = Op::LBU, .rd = 2, .rs1 = 1, .imm = 0});
    EXPECT_EQ(c.regs.get(2), 0x80u);
    c.step({.op = Op::LH, .rd = 2, .rs1 = 1, .imm = 2});
    EXPECT_EQ(static_cast<i32>(c.regs.get(2)), -1);
    c.step({.op = Op::LHU, .rd = 2, .rs1 = 1, .imm = 2});
    EXPECT_EQ(c.regs.get(2), 0xffffu);
}

TEST(ExecCore, StoreReportsMemAccess)
{
    Ctx c;
    c.regs.set(1, 0x200);
    c.regs.set(2, 42);
    const StepResult r =
        c.step({.op = Op::SW, .rs1 = 1, .rs2 = 2, .imm = 8});
    EXPECT_TRUE(r.memAccess);
    EXPECT_EQ(r.memAddr, 0x208u);
    EXPECT_EQ(r.memSize, 4u);
    EXPECT_EQ(c.mem.readWord(0x208), 42u);
}

TEST(ExecCore, BranchesAndJumps)
{
    Ctx c;
    c.regs.set(1, 5);
    c.regs.set(2, 5);
    StepResult r = c.step({.op = Op::BEQ, .rs1 = 1, .rs2 = 2, .imm = -4});
    EXPECT_TRUE(r.branchTaken);
    EXPECT_EQ(r.nextPc, 0x1000u - 16u);
    r = c.step({.op = Op::BNE, .rs1 = 1, .rs2 = 2, .imm = -4});
    EXPECT_FALSE(r.branchTaken);
    EXPECT_EQ(r.nextPc, 0x1004u);
    r = c.step({.op = Op::JAL, .rd = 31, .imm = 16});
    EXPECT_EQ(r.nextPc, 0x1000u + 64u);
    EXPECT_EQ(c.regs.get(31), 0x1004u);
    c.regs.set(5, 0x2000);
    r = c.step({.op = Op::JALR, .rd = 1, .rs1 = 5, .imm = 0});
    EXPECT_EQ(r.nextPc, 0x2000u);
}

TEST(ExecCore, XloopTraditionalSemantics)
{
    Ctx c;
    c.regs.set(1, 0);   // idx
    c.regs.set(2, 3);   // bound
    const Instruction xl{.op = Op::XLOOP_UC, .rd = 1, .rs1 = 2, .imm = -2};
    StepResult r = c.step(xl, 0x1010);
    EXPECT_TRUE(r.branchTaken);
    EXPECT_EQ(c.regs.get(1), 1u);
    EXPECT_EQ(r.nextPc, 0x1008u);
    c.step(xl, 0x1010);
    r = c.step(xl, 0x1010);      // idx: 2 -> 3, not < 3
    EXPECT_FALSE(r.branchTaken);
    EXPECT_EQ(r.nextPc, 0x1014u);
    EXPECT_EQ(c.regs.get(1), 3u);
}

TEST(ExecCore, XiTraditionalSemantics)
{
    Ctx c;
    c.regs.set(5, 100);
    c.step({.op = Op::ADDIU_XI, .rd = 5, .imm = 4});
    EXPECT_EQ(c.regs.get(5), 104u);
    c.regs.set(6, 12);
    c.step({.op = Op::ADDU_XI, .rd = 5, .rs2 = 6});
    EXPECT_EQ(c.regs.get(5), 116u);
}

TEST(ExecCore, AmoReturnsOldValue)
{
    Ctx c;
    c.mem.writeWord(0x400, 7);
    c.regs.set(1, 0x400);
    c.regs.set(2, 3);
    const StepResult r =
        c.step({.op = Op::AMOADD, .rd = 4, .rs1 = 1, .rs2 = 2});
    EXPECT_EQ(c.regs.get(4), 7u);
    EXPECT_EQ(c.mem.readWord(0x400), 10u);
    EXPECT_TRUE(r.memAccess);
}

TEST(ExecCore, HaltStops)
{
    Ctx c;
    const StepResult r = c.step({.op = Op::HALT});
    EXPECT_TRUE(r.halted);
}


TEST(ExecCore, SubwordStores)
{
    Ctx c;
    c.mem.writeWord(0x100, 0xffffffff);
    c.regs.set(1, 0x100);
    c.regs.set(2, 0xab);
    c.step({.op = Op::SB, .rs1 = 1, .rs2 = 2, .imm = 1});
    EXPECT_EQ(c.mem.readWord(0x100), 0xffffabffu);
    c.regs.set(2, 0x1234);
    c.step({.op = Op::SH, .rs1 = 1, .rs2 = 2, .imm = 2});
    EXPECT_EQ(c.mem.readWord(0x100), 0x1234abffu);
}

TEST(ExecCore, FloatMinMaxSubDiv)
{
    Ctx c;
    MainMemory scratch;
    auto fbits = [&](float f) {
        scratch.writeFloat(0, f);
        return scratch.readWord(0);
    };
    auto asf = [&](u32 v) {
        scratch.writeWord(0, v);
        return scratch.readFloat(0);
    };
    c.regs.set(1, fbits(6.0f));
    c.regs.set(2, fbits(-1.5f));
    c.step({.op = Op::FSUB, .rd = 3, .rs1 = 1, .rs2 = 2});
    EXPECT_FLOAT_EQ(asf(c.regs.get(3)), 7.5f);
    c.step({.op = Op::FDIV, .rd = 3, .rs1 = 1, .rs2 = 2});
    EXPECT_FLOAT_EQ(asf(c.regs.get(3)), -4.0f);
    c.step({.op = Op::FMIN, .rd = 3, .rs1 = 1, .rs2 = 2});
    EXPECT_FLOAT_EQ(asf(c.regs.get(3)), -1.5f);
    c.step({.op = Op::FMAX, .rd = 3, .rs1 = 1, .rs2 = 2});
    EXPECT_FLOAT_EQ(asf(c.regs.get(3)), 6.0f);
    c.step({.op = Op::FLE, .rd = 3, .rs1 = 2, .rs2 = 1});
    EXPECT_EQ(c.regs.get(3), 1u);
    c.step({.op = Op::FEQ, .rd = 3, .rs1 = 1, .rs2 = 1});
    EXPECT_EQ(c.regs.get(3), 1u);
}

TEST(ExecCore, LogicalAndUnsignedBranches)
{
    Ctx c;
    c.regs.set(1, 0x0ff0);
    c.regs.set(2, 0x00ff);
    c.step({.op = Op::NOR, .rd = 3, .rs1 = 1, .rs2 = 2});
    EXPECT_EQ(c.regs.get(3), ~(0x0ff0u | 0x00ffu));
    c.regs.set(1, 1);
    c.regs.set(2, static_cast<u32>(-1));  // unsigned-huge
    StepResult r = c.step({.op = Op::BLTU, .rs1 = 1, .rs2 = 2,
                           .imm = -4});
    EXPECT_TRUE(r.branchTaken);
    r = c.step({.op = Op::BGEU, .rs1 = 1, .rs2 = 2, .imm = -4});
    EXPECT_FALSE(r.branchTaken);
}

TEST(ExecCore, FenceAndNopAreInert)
{
    Ctx c;
    const StepResult f = c.step({.op = Op::FENCE});
    EXPECT_FALSE(f.halted);
    EXPECT_FALSE(f.memAccess);
    EXPECT_EQ(f.nextPc, 0x1004u);
    c.regs.set(5, 0x1234);
    const RegFile before = c.regs;
    c.step({.op = Op::NOP});
    EXPECT_EQ(c.regs.regs, before.regs);
}

// --- whole-program functional runs ---------------------------------------

TEST(Functional, SumLoopTraditional)
{
    // sum = 0; for (i = 0; i < 10; i++) sum += i;  via xloop.uc
    const Program prog = assemble(
        "  li r1, 0\n"       // i
        "  li r2, 10\n"      // n
        "  li r3, 0\n"       // sum
        "body:\n"
        "  add r3, r3, r1\n"
        "  xloop.uc r1, r2, body\n"
        "  la r4, out\n"
        "  sw r3, 0(r4)\n"
        "  halt\n"
        "  .data\n"
        "out: .word 0\n");
    MainMemory mem;
    prog.loadInto(mem);
    FunctionalExecutor exec(mem);
    const FuncResult result = exec.run(prog);
    EXPECT_TRUE(result.halted);
    EXPECT_EQ(mem.readWord(prog.symbol("out")), 45u);
    EXPECT_EQ(exec.stats().get(Stat::XloopInsts), 10u);
}

TEST(Functional, VectorAddWithXi)
{
    const Program prog = assemble(
        "  li r1, 0\n"
        "  li r2, 8\n"
        "  la r5, a\n"
        "  la r6, b\n"
        "  la r7, c\n"
        "body:\n"
        "  lw r8, 0(r5)\n"
        "  lw r9, 0(r6)\n"
        "  add r10, r8, r9\n"
        "  sw r10, 0(r7)\n"
        "  addiu.xi r5, 4\n"
        "  addiu.xi r6, 4\n"
        "  addiu.xi r7, 4\n"
        "  xloop.uc r1, r2, body\n"
        "  halt\n"
        "  .data\n"
        "a: .word 1, 2, 3, 4, 5, 6, 7, 8\n"
        "b: .word 10, 20, 30, 40, 50, 60, 70, 80\n"
        "c: .space 32\n");
    MainMemory mem;
    prog.loadInto(mem);
    FunctionalExecutor exec(mem);
    exec.run(prog);
    const Addr cAddr = prog.symbol("c");
    for (u32 i = 0; i < 8; i++)
        EXPECT_EQ(mem.readWord(cAddr + 4 * i), (i + 1) + 10 * (i + 1)) << i;
}

TEST(Functional, DynamicBoundWorklist)
{
    // Start with bound 1; first three iterations extend the bound,
    // writing each index into out[]. Models an xloop.uc.db worklist.
    const Program prog = assemble(
        "  li r1, 0\n"       // idx
        "  li r2, 1\n"       // bound (dynamic)
        "  la r7, out\n"
        "body:\n"
        "  slli r8, r1, 2\n"
        "  add r9, r7, r8\n"
        "  sw r1, 0(r9)\n"
        "  li r10, 4\n"
        "  bge r1, r10, done\n"   // first 4 iterations grow the bound
        "  addi r2, r2, 1\n"
        "done:\n"
        "  xloop.uc.db r1, r2, body\n"
        "  la r11, cnt\n"
        "  sw r1, 0(r11)\n"
        "  halt\n"
        "  .data\n"
        "out: .space 64\n"
        "cnt: .word 0\n");
    MainMemory mem;
    prog.loadInto(mem);
    FunctionalExecutor exec(mem);
    exec.run(prog);
    EXPECT_EQ(mem.readWord(prog.symbol("cnt")), 5u);
    for (u32 i = 0; i < 5; i++)
        EXPECT_EQ(mem.readWord(prog.symbol("out") + 4 * i), i) << i;
}

TEST(Functional, RunawayProgramHitsLimit)
{
    const Program prog = assemble("spin:\n  j spin\n  halt\n");
    MainMemory mem;
    prog.loadInto(mem);
    FunctionalExecutor exec(mem);
    EXPECT_THROW(exec.run(prog, 1000), FatalError);
}

TEST(Functional, CsrrReadsCycleCounter)
{
    const Program prog = assemble(
        "  csrr r1, 0\n"
        "  la r2, out\n"
        "  sw r1, 0(r2)\n"
        "  halt\n"
        "  .data\n"
        "out: .word 0\n");
    MainMemory mem;
    prog.loadInto(mem);
    FunctionalExecutor exec(mem);
    exec.run(prog);
    // The functional model reports dynamic instruction count as "cycle".
    EXPECT_EQ(mem.readWord(prog.symbol("out")), 0u);
}

} // namespace
} // namespace xloops
