// Unit tests for the LMU's scan-phase static analysis (scanXloop):
// body extraction, pattern/db decoding, CIR identification with the
// idx/bound/MIV exclusions, last-CIR-write tracking, early-push
// safety under internal backward branches, MIVT construction
// (including register-increment addu.xi), live-in counting, and the
// predecoded LaneOp of every body instruction against the ISA tables.

#include <gtest/gtest.h>

#include "asm/assembler.h"
#include "common/log.h"
#include "kernels/kernel.h"
#include "lpsu/lpsu.h"

namespace xloops {
namespace {

ScanInfo
scanOf(const std::string &src, const RegFile &regs = RegFile{},
       unsigned skip = 0)
{
    const Program prog = assemble(src);
    // Find the (skip+1)-th xloop instruction.
    for (Addr pc = prog.textBase; prog.inText(pc); pc += 4) {
        if (prog.fetch(pc).isXloop()) {
            if (skip == 0)
                return scanXloop(prog, pc, regs);
            skip--;
        }
    }
    throw FatalError("no xloop in test program");
}

TEST(Scan, BodyRangeAndPattern)
{
    const ScanInfo si = scanOf(
        "  li r1, 0\n  li r2, 8\n"
        "body:\n  add r3, r4, r5\n  sub r6, r7, r8\n"
        "  xloop.om r1, r2, body\n  halt\n");
    EXPECT_EQ(si.ops.size(), 2u);
    EXPECT_EQ(si.pattern, LoopPattern::OM);
    EXPECT_FALSE(si.dynamicBound);
    EXPECT_TRUE(si.ordersMemory());
    EXPECT_FALSE(si.ordersRegisters());
    EXPECT_EQ(si.idxReg, 1);
    EXPECT_EQ(si.boundReg, 2);
}

TEST(Scan, DynamicBoundFlag)
{
    const ScanInfo si = scanOf(
        "  li r1, 0\n  li r2, 8\n"
        "body:\n  addi r2, r2, 0\n"
        "  xloop.uc.db r1, r2, body\n  halt\n");
    EXPECT_TRUE(si.dynamicBound);
    EXPECT_EQ(si.pattern, LoopPattern::UC);
}

TEST(Scan, CirDetectionReadBeforeWrite)
{
    const ScanInfo si = scanOf(
        "  li r1, 0\n  li r2, 8\n  li r3, 0\n"
        "body:\n"
        "  add r3, r3, r1\n"    // r3: read-then-write -> CIR
        "  add r4, r1, r1\n"    // r4: write-first -> temp
        "  add r5, r4, r4\n"
        "  xloop.or r1, r2, body\n  halt\n");
    EXPECT_EQ(si.numCirs, 1u);
    EXPECT_TRUE(si.isCir[3]);
    EXPECT_FALSE(si.isCir[4]);
    EXPECT_FALSE(si.isCir[5]);
}

TEST(Scan, IdxBoundAndMivExcludedFromCirs)
{
    const ScanInfo si = scanOf(
        "  li r1, 0\n  li r2, 8\n"
        "body:\n"
        "  add r4, r1, r2\n"     // reads idx and bound
        "  addi r2, r2, 1\n"     // writes bound (db pattern)
        "  addiu.xi r5, 4\n"     // MIV
        "  sw r4, 0(r5)\n"
        "  xloop.or.db r1, r2, body\n  halt\n");
    EXPECT_EQ(si.numCirs, 0u);
    EXPECT_TRUE(si.isMiv[5]);
    EXPECT_EQ(si.mivInc[5], 4);
}

TEST(Scan, AdduXiTakesIncrementFromLiveIns)
{
    RegFile regs;
    regs.set(9, 24);  // loop-invariant stride register
    const ScanInfo si = scanOf(
        "  li r1, 0\n  li r2, 8\n"
        "body:\n"
        "  addu.xi r5, r9\n"
        "  xloop.uc r1, r2, body\n  halt\n",
        regs);
    EXPECT_TRUE(si.isMiv[5]);
    EXPECT_EQ(si.mivInc[5], 24);
}

TEST(Scan, LastCirWriteIsLargestPc)
{
    const ScanInfo si = scanOf(
        "  li r1, 0\n  li r2, 8\n  li r3, 0\n"
        "body:\n"
        "  add r3, r3, r1\n"
        "  add r4, r3, r1\n"
        "  add r3, r3, r4\n"    // <- last write
        "  xloop.or r1, r2, body\n  halt\n");
    ASSERT_TRUE(si.isCir[3]);
    EXPECT_EQ(si.lastCirWritePc[3], si.bodyStart + 8);
    EXPECT_TRUE(si.earlyPushOk[3]);
}

TEST(Scan, BackwardBranchDisablesEarlyPush)
{
    // An inner loop after the last CIR write is harmless, but a
    // backward edge crossing the write is not.
    const ScanInfo crossing = scanOf(
        "  li r1, 0\n  li r2, 8\n  li r3, 0\n"
        "body:\n"
        "inner:\n"
        "  add r3, r3, r1\n"      // CIR write inside the inner loop
        "  addi r4, r4, 1\n"
        "  blt r4, r2, inner\n"   // backward edge crosses the write
        "  xloop.or r1, r2, body\n  halt\n");
    ASSERT_TRUE(crossing.isCir[3]);
    EXPECT_FALSE(crossing.earlyPushOk[3]);

    const ScanInfo after = scanOf(
        "  li r1, 0\n  li r2, 8\n  li r3, 0\n"
        "body:\n"
        "  add r3, r3, r1\n"      // CIR write before the inner loop
        "  li r4, 0\n"
        "inner:\n"
        "  addi r4, r4, 1\n"
        "  blt r4, r2, inner\n"
        "  xloop.or r1, r2, body\n  halt\n");
    ASSERT_TRUE(after.isCir[3]);
    EXPECT_TRUE(after.earlyPushOk[3]);
}

TEST(Scan, LiveInCounting)
{
    const ScanInfo si = scanOf(
        "  li r1, 0\n  li r2, 8\n"
        "body:\n"
        "  add r4, r5, r6\n"     // r5, r6 live-in; r4 not
        "  add r4, r4, r1\n"     // r1 (idx) live-in
        "  sw r4, 0(r7)\n"       // r7 live-in
        "  xloop.uc r1, r2, body\n  halt\n");
    // r1, r5, r6, r7 read before written; r2 read by the xloop but
    // not inside the body (the LMU copies it anyway via idx/bound
    // handling; only body live-ins are counted here).
    EXPECT_EQ(si.numLiveIns, 4u);
}

TEST(Scan, NestedXloopCountsAsBodyInstruction)
{
    const ScanInfo si = scanOf(
        "  li r1, 0\n  li r2, 8\n"
        "body:\n"
        "  li r3, 0\n"
        "inner:\n"
        "  addi r4, r4, 1\n"
        "  xloop.uc r3, r2, inner, nohint\n"
        "  xloop.om r1, r2, body\n  halt\n",
        RegFile{}, 1);  // scan the outer (second) xloop
    EXPECT_EQ(si.pattern, LoopPattern::OM);
    EXPECT_EQ(si.ops.size(), 3u);
    EXPECT_TRUE(si.ops[2].inst.isXloop());
}

// Every fact a lane reads from its LaneOp equals what the ISA tables
// and the scan arrays give for the instruction, over every body
// instruction of every xloop in the Table II kernels.
TEST(Scan, LaneOpsAgreeWithIsaTables)
{
    unsigned xloops = 0;
    unsigned earlyPushes = 0;
    for (const std::string &name : tableIIKernelNames()) {
        const Program prog = assemble(kernelByName(name).source);
        for (Addr xpc = prog.textBase; prog.inText(xpc); xpc += 4) {
            if (!prog.fetch(xpc).isXloop())
                continue;
            xloops++;
            const ScanInfo si = scanXloop(prog, xpc, RegFile{});
            ASSERT_EQ(si.ops.size(), (si.bodyEnd - si.bodyStart) / 4);
            for (size_t i = 0; i < si.ops.size(); i++) {
                const LaneOp &op = si.ops[i];
                const Instruction &inst = op.inst;
                const Addr pc = si.bodyStart + static_cast<Addr>(4 * i);
                SCOPED_TRACE(strf(name, " pc ", pc));
                EXPECT_EQ(inst, prog.fetch(pc));

                RegId srcs[2] = {};
                const unsigned n = inst.srcRegs(srcs);
                ASSERT_EQ(op.numSrcs, n);
                for (unsigned s = 0; s < n; s++)
                    EXPECT_EQ(op.srcs[s], srcs[s]);
                const RegId dst = inst.destReg();
                EXPECT_EQ(op.dst, dst);
                EXPECT_EQ(op.latency, inst.traits().latency);
                EXPECT_EQ(op.memSize, opMeta(inst.op).memSize);

                EXPECT_EQ(op.isLoad, inst.isLoad());
                EXPECT_EQ(op.isStore, inst.isStore());
                EXPECT_EQ(op.isAmo, inst.isAmo());
                EXPECT_EQ(op.isMem, inst.isMem());
                EXPECT_EQ(op.isLlfu, inst.isLlfu());
                EXPECT_EQ(op.unpipelined, inst.op == Op::DIV ||
                                              inst.op == Op::REM ||
                                              inst.op == Op::FDIV);
                EXPECT_EQ(op.isHalt, inst.op == Op::HALT);

                const bool dstIsCir = dst < numArchRegs && si.isCir[dst];
                EXPECT_EQ(op.dstIsCir, dstIsCir);
                // The per-issue condition before LaneOp, minus its
                // dynamic "not pushed yet" half.
                const bool earlyPush =
                    si.pattern == LoopPattern::OR && dst < numArchRegs &&
                    si.isCir[dst] && pc == si.lastCirWritePc[dst] &&
                    si.earlyPushOk[dst];
                EXPECT_EQ(op.earlyPush, earlyPush);
                earlyPushes += earlyPush;
            }
        }
    }
    EXPECT_GE(xloops, 25u);
    EXPECT_GT(earlyPushes, 0u);
}

TEST(Scan, NonXloopPcPanics)
{
    const Program prog = assemble("  add r1, r2, r3\n  halt\n");
    RegFile regs;
    EXPECT_THROW(scanXloop(prog, prog.textBase, regs), PanicError);
}

} // namespace
} // namespace xloops
