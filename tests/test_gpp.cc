// Timing-model tests for the in-order and out-of-order GPPs:
// pipeline behaviour (RAW stalls, branch penalties, cache effects) and
// relative-performance sanity (ooo/4 >= ooo/2 >= io on ILP-rich code,
// serial chains collapse the gap).

#include <gtest/gtest.h>

#include <sstream>

#include "asm/assembler.h"
#include "common/json.h"
#include "common/sim_error.h"
#include "cpu/inorder.h"
#include "cpu/ooo.h"
#include "cpu/run.h"

namespace xloops {
namespace {

GppConfig
ioCfg()
{
    return GppConfig{};
}

GppConfig
oooCfg(unsigned width)
{
    GppConfig cfg;
    cfg.kind = GppConfig::Kind::OutOfOrder;
    cfg.width = width;
    cfg.robSize = width == 2 ? 64 : 128;
    cfg.iqSize = width == 2 ? 32 : 64;
    cfg.lsqEntries = width == 2 ? 16 : 32;
    cfg.memPorts = width == 2 ? 1 : 2;
    cfg.branchPenalty = 10;
    return cfg;
}

Cycle
cyclesFor(const std::string &src, GppModel &model)
{
    const Program prog = assemble(src);
    MainMemory mem;
    prog.loadInto(mem);
    return runTraditional(prog, mem, model).cycles;
}

TEST(InOrder, IndependentAlusAreOnePerCycle)
{
    InOrderCpu cpu(ioCfg());
    // Warm loop of 10 independent adds: ~1 IPC plus the taken-branch
    // redirect per iteration.
    std::string src = "  li r20, 0\n  li r21, 100\nbody:\n";
    for (int i = 0; i < 10; i++)
        src += "  add r1, r2, r3\n";
    src += "  xloop.uc r20, r21, body\n  halt\n";
    const Cycle cycles = cyclesFor(src, cpu);
    // 10 adds + xloop + 2-cycle redirect = ~13 per iteration.
    EXPECT_GE(cycles, 100u * 13u - 20u);
    EXPECT_LE(cycles, 100u * 13u + 80u);  // compulsory icache misses
}

TEST(InOrder, LoadUseStalls)
{
    InOrderCpu dependent(ioCfg());
    const Cycle dep = cyclesFor(
        "  la r2, d\n"
        "  lw r1, 0(r2)\n"
        "  add r3, r1, r1\n"   // consumes the load immediately
        "  halt\n"
        "  .data\n"
        "d: .word 5\n",
        dependent);
    InOrderCpu independent(ioCfg());
    const Cycle indep = cyclesFor(
        "  la r2, d\n"
        "  lw r1, 0(r2)\n"
        "  add r3, r4, r4\n"
        "  halt\n"
        "  .data\n"
        "d: .word 5\n",
        independent);
    EXPECT_GT(dep, indep);
    EXPECT_GT(dependent.stats().get(Stat::RawStallCycles), 0u);
}

TEST(InOrder, TakenBranchCostsRedirect)
{
    // Loop of N iterations: each taken xloop back-branch pays the
    // 2-cycle redirect, so >= 3 cycles per iteration of 1 add.
    InOrderCpu cpu(ioCfg());
    const Cycle cycles = cyclesFor(
        "  li r1, 0\n"
        "  li r2, 100\n"
        "body:\n"
        "  add r3, r3, r1\n"
        "  xloop.uc r1, r2, body\n"
        "  halt\n",
        cpu);
    EXPECT_GE(cycles, 100u * 4u - 20u);
    EXPECT_EQ(cpu.stats().get(Stat::BranchRedirects), 99u);
}

TEST(InOrder, DivIsUnpipelined)
{
    InOrderCpu cpu(ioCfg());
    std::string src = "  li r2, 100\n  li r3, 7\n";
    for (int i = 0; i < 10; i++)
        src += "  div r4, r2, r3\n";
    src += "  halt\n";
    const Cycle cycles = cyclesFor(src, cpu);
    EXPECT_GE(cycles, 10u * 12u);
    EXPECT_GT(cpu.stats().get(Stat::LlfuStallCycles), 0u);
}

TEST(InOrder, DcacheMissesAddLatency)
{
    // Stride through 64KB (4x the 16KB cache): every line misses.
    InOrderCpu cpu(ioCfg());
    const Cycle cold = cyclesFor(
        "  li r1, 0\n"
        "  li r2, 2048\n"
        "  la r5, buf\n"
        "body:\n"
        "  lw r6, 0(r5)\n"
        "  addiu.xi r5, 32\n"
        "  xloop.uc r1, r2, body\n"
        "  halt\n"
        "  .data\n"
        "buf: .space 65536\n",
        cpu);
    EXPECT_GT(cold, 2048u * 20u);  // dominated by miss penalty
    EXPECT_GT(cpu.dcacheModel().stats().get(Stat::ReadMisses), 2000u);
}

TEST(InOrder, AdvanceToAddsExternalStall)
{
    InOrderCpu cpu(ioCfg());
    cpu.advanceTo(1000);
    EXPECT_GE(cpu.now(), 1000u);
    EXPECT_EQ(cpu.stats().get(Stat::ExtStallCycles), 1000u);
}

TEST(Gshare, LearnsLoopBranch)
{
    GsharePredictor bp;
    // Alternating-free pattern: always taken. Must converge quickly.
    unsigned wrong = 0;
    for (int i = 0; i < 100; i++)
        if (!bp.predictAndTrain(0x1000, true))
            wrong++;
    // gshare warms one table entry per new history pattern: allow the
    // ~history-length training transient, then perfect prediction.
    EXPECT_LE(wrong, 15u);
    wrong = 0;
    for (int i = 0; i < 100; i++)
        if (!bp.predictAndTrain(0x1000, true))
            wrong++;
    EXPECT_EQ(wrong, 0u);
}

TEST(Gshare, RandomBranchMispredictsOften)
{
    GsharePredictor bp;
    // Pseudo-random outcomes: accuracy should be mediocre.
    unsigned wrong = 0;
    u32 lfsr = 0xace1;
    for (int i = 0; i < 1000; i++) {
        lfsr = (lfsr >> 1) ^ (-(lfsr & 1u) & 0xb400u);
        if (!bp.predictAndTrain(0x1000, (lfsr & 1) != 0))
            wrong++;
    }
    EXPECT_GT(wrong, 200u);
}

TEST(Ooo, ExtractsIlpFromIndependentChains)
{
    // A warm loop with four independent dependence chains: the 4-way
    // OoO should be markedly faster than in-order.
    std::string src = "  li r20, 0\n  li r21, 200\nbody:\n";
    for (int i = 0; i < 2; i++) {
        src += "  add r1, r1, r10\n";
        src += "  add r2, r2, r10\n";
        src += "  add r3, r3, r10\n";
        src += "  add r4, r4, r10\n";
    }
    src += "  xloop.uc r20, r21, body\n  halt\n";

    InOrderCpu io(ioCfg());
    const Cycle ioCycles = cyclesFor(src, io);
    OooCpu ooo4(oooCfg(4));
    const Cycle oooCycles = cyclesFor(src, ooo4);
    EXPECT_LT(oooCycles * 5, ioCycles * 2);  // at least 2.5x faster
}

TEST(Ooo, SerialChainGivesNoAdvantage)
{
    // One long RAW chain in a warm loop: both machines are limited by
    // the chain, so OoO gains little.
    std::string src = "  li r20, 0\n  li r21, 100\nbody:\n";
    for (int i = 0; i < 8; i++)
        src += "  add r1, r1, r2\n";
    src += "  xloop.uc r20, r21, body\n  halt\n";
    InOrderCpu io(ioCfg());
    OooCpu ooo4(oooCfg(4));
    const Cycle ioCycles = cyclesFor(src, io);
    const Cycle oooCycles = cyclesFor(src, ooo4);
    // The chain costs 8 cycles/iter either way; in-order pays branch
    // redirects too. OoO must not be more than ~1.5x faster.
    EXPECT_GT(oooCycles * 3, ioCycles * 2);
}

TEST(Ooo, WiderIsNotSlower)
{
    std::string src;
    for (int i = 0; i < 50; i++) {
        src += "  add r1, r1, r9\n  add r2, r2, r9\n"
               "  add r3, r3, r9\n  add r4, r4, r9\n"
               "  add r5, r5, r9\n  add r6, r6, r9\n";
    }
    src += "  halt\n";
    OooCpu ooo2(oooCfg(2));
    OooCpu ooo4(oooCfg(4));
    const Cycle c2 = cyclesFor(src, ooo2);
    const Cycle c4 = cyclesFor(src, ooo4);
    EXPECT_LE(c4, c2);
}

TEST(Ooo, MispredictPenaltyHurtsDataDependentBranches)
{
    // Branch pattern depends on pseudo-random data: high mispredicts.
    const std::string src =
        "  li r1, 0\n"
        "  li r2, 512\n"
        "  li r7, 0xace1\n"
        "body:\n"
        "  srli r8, r7, 1\n"
        "  andi r9, r7, 1\n"
        "  beqz r9, skip\n"
        "  xori r8, r8, 0x2d\n"
        "skip:\n"
        "  mov r7, r8\n"
        "  xloop.uc r1, r2, body\n"
        "  halt\n";
    OooCpu ooo(oooCfg(4));
    const Cycle cycles = cyclesFor(src, ooo);
    EXPECT_GT(ooo.stats().get(Stat::Mispredicts), 50u);
    EXPECT_GT(cycles, 512u);  // mispredicts keep IPC below width
}

TEST(Ooo, StoreToLoadForwardingAvoidsCachePenalty)
{
    // Store then immediately load the same address repeatedly.
    const std::string src =
        "  li r1, 0\n"
        "  li r2, 64\n"
        "  la r5, d\n"
        "body:\n"
        "  sw r1, 0(r5)\n"
        "  lw r6, 0(r5)\n"
        "  xloop.uc r1, r2, body\n"
        "  halt\n"
        "  .data\n"
        "d: .word 0\n";
    OooCpu ooo(oooCfg(2));
    cyclesFor(src, ooo);
    EXPECT_GT(ooo.stats().get(Stat::StlForwards), 50u);
}

// Forwarding takes the newest matching store. After lsqEntries - 1
// stores fill the ring up to its last slot, store A writes early data
// there and store B wraps to the first slot with late data from a
// chain of divides. Whether A writes the load's word or the next one,
// the load forwards from B and waits for the divides, so both runs take
// the same cycles; an oldest-first scan would forward A's early data.
// ooo/4 has two memory ports, so the load is not queued behind B.
TEST(Ooo, ForwardingTakesTheNewestMatchingStore)
{
    auto run = [](int offsetOfA) {
        const GppConfig cfg = oooCfg(4);
        std::string src = "  li r1, 0\n  li r2, " +
                          std::to_string(cfg.lsqEntries - 1) +
                          "\n  li r3, 7\n"
                          "  la r5, d\n"
                          "fill:\n"
                          "  sw r3, 64(r5)\n"
                          "  xloop.uc r1, r2, fill\n"
                          "  sw r3, " + std::to_string(offsetOfA) + "(r5)\n"
                          "  div r4, r2, r3\n";
        for (int i = 0; i < 7; i++)
            src += "  div r4, r4, r3\n";
        src += "  sw r4, 0(r5)\n  lw r6, 0(r5)\n";
        for (int i = 0; i < 8; i++)
            src += "  mul r6, r6, r6\n";
        src += "  halt\n  .data\nd: .space 128\n";
        OooCpu ooo(cfg);
        const Cycle cycles = cyclesFor(src, ooo);
        EXPECT_EQ(ooo.stats().get(Stat::StlForwards), 1u);
        return cycles;
    };
    EXPECT_EQ(run(0), run(4));
}

std::string
stateText(const GppModel &model)
{
    std::ostringstream os;
    JsonWriter w(os, /*pretty=*/false);
    w.beginObject();
    model.saveState(w);
    w.endObject();
    return os.str();
}

// The store queue is a ring of lsqEntries slots: after 64 stores it has
// wrapped, its checkpoint text survives a round trip, and a checkpoint
// holding more stores than the configuration's queue is refused.
TEST(Ooo, StoreQueueRingRoundTripsAndRejectsOverflow)
{
    const std::string src =
        "  li r1, 0\n"
        "  li r2, 64\n"
        "  la r5, d\n"
        "body:\n"
        "  slli r6, r1, 2\n"
        "  add r6, r6, r5\n"
        "  sw r1, 0(r6)\n"
        "  xloop.uc r1, r2, body\n"
        "  halt\n"
        "  .data\n"
        "d: .space 256\n";
    OooCpu ooo(oooCfg(2));
    cyclesFor(src, ooo);
    const std::string text = stateText(ooo);
    const JsonValue state = jsonParse(text);
    ASSERT_EQ(state.at("store_queue").array().size(), 16u);
    EXPECT_EQ(state.at("store_queue").array().back().at("addr").asU64(),
              assemble(src).symbol("d") + 63 * 4);

    OooCpu back(oooCfg(2));
    back.loadState(state);
    EXPECT_EQ(stateText(back), text);

    GppConfig small = oooCfg(2);
    small.lsqEntries = 4;
    OooCpu tiny(small);
    try {
        tiny.loadState(state);
        FAIL() << "restore accepted 16 stores into a 4-entry queue";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("store_queue"),
                  std::string::npos)
            << err.what();
    }
}

TEST(Ooo, RobLimitsWindow)
{
    // Unpipelined divides at the head of each iteration hold retirement
    // back while fast adds pile into the ROB; eventually the window
    // fills and dispatch stalls. The IQ is sized up to the ROB so the
    // reorder buffer is the binding constraint here.
    std::string src = "  li r2, 100\n  li r3, 7\n  li r20, 0\n"
                      "  li r21, 50\nbody:\n"
                      "  div r4, r2, r3\n  div r5, r2, r3\n"
                      "  div r6, r2, r3\n  div r7, r2, r3\n";
    for (int i = 0; i < 24; i++)
        src += "  add r8, r9, r10\n";
    src += "  xloop.uc r20, r21, body\n  halt\n";
    GppConfig cfg = oooCfg(2);
    cfg.iqSize = cfg.robSize;
    OooCpu ooo(cfg);
    cyclesFor(src, ooo);
    EXPECT_GT(ooo.stats().get(Stat::RobStallCycles), 0u);
}

TEST(Ooo, TraditionalXloopWithinFivePercentOfGpBinary)
{
    // The paper's traditional-execution goal: an XLOOPS binary on a
    // GPP performs within a few percent of the GP-ISA serial binary.
    const std::string xloopsSrc =
        "  li r1, 0\n"
        "  li r2, 1000\n"
        "  la r5, buf\n"
        "body:\n"
        "  lw r6, 0(r5)\n"
        "  add r6, r6, r2\n"
        "  sw r6, 0(r5)\n"
        "  addiu.xi r5, 4\n"
        "  xloop.uc r1, r2, body\n"
        "  halt\n"
        "  .data\n"
        "buf: .space 4000\n";
    const std::string gpSrc =
        "  li r1, 0\n"
        "  li r2, 1000\n"
        "  la r5, buf\n"
        "body:\n"
        "  lw r6, 0(r5)\n"
        "  add r6, r6, r2\n"
        "  sw r6, 0(r5)\n"
        "  addi r5, r5, 4\n"
        "  addi r1, r1, 1\n"
        "  blt r1, r2, body\n"
        "  halt\n"
        "  .data\n"
        "buf: .space 4000\n";
    for (const unsigned width : {2u, 4u}) {
        OooCpu a(oooCfg(width));
        OooCpu b(oooCfg(width));
        const Cycle xl = cyclesFor(xloopsSrc, a);
        const Cycle gp = cyclesFor(gpSrc, b);
        EXPECT_LT(xl, gp + gp / 20) << "width " << width;
    }
}


TEST(Traditional, InstLimitIsADiagnosableSimError)
{
    // A program that never halts must trip the instruction valve as a
    // SimError(InstLimit) carrying a machine snapshot — a diagnosable,
    // per-cell-recordable condition for the sweep harness — not an
    // undifferentiated FatalError.
    const Program prog = assemble(
        "  li r1, 0\n"
        "  li r2, 0\n"
        "spin:\n"
        "  add r3, r3, r1\n"
        "  beq r1, r2, spin\n"   // r1 == r2 forever
        "  halt\n");
    MainMemory mem;
    prog.loadInto(mem);
    InOrderCpu cpu(ioCfg());
    try {
        runTraditional(prog, mem, cpu, 1000);
        FAIL() << "expected a SimError";
    } catch (const SimError &err) {
        EXPECT_EQ(err.kind(), SimErrorKind::InstLimit);
        EXPECT_NE(std::string(err.what()).find("1000"),
                  std::string::npos);
        EXPECT_EQ(err.snapshot().gppInsts, 1000u);
        EXPECT_TRUE(prog.inText(err.snapshot().gppPc));
    }
}

TEST(Traditional, HaltingExactlyAtTheLimitDoesNotThrow)
{
    // The valve only fires on work *beyond* the limit: a program whose
    // final halt is exactly the Nth instruction completes normally.
    const Program prog = assemble(
        "  li r1, 1\n"
        "  li r2, 2\n"
        "  halt\n");
    MainMemory mem;
    prog.loadInto(mem);
    InOrderCpu cpu(ioCfg());
    const GppRunResult result = runTraditional(prog, mem, cpu, 3);
    EXPECT_EQ(result.dynInsts, 3u);
    EXPECT_GT(result.cycles, 0u);
}

TEST(Ooo, IqSizeLimitsInFlightUnissuedWork)
{
    // A long divide chain keeps dependents unissued; with a tiny IQ
    // the front end must stall on IQ entries well before the ROB
    // fills.
    GppConfig cfg = oooCfg(2);
    cfg.iqSize = 4;
    std::string src = "  li r2, 100\n  li r3, 7\n  li r20, 0\n"
                      "  li r21, 40\nbody:\n"
                      "  div r4, r2, r3\n";
    for (int i = 0; i < 12; i++)
        src += "  add r5, r4, r5\n";  // all depend on the slow div
    src += "  xloop.uc r20, r21, body\n  halt\n";
    OooCpu tiny(cfg);
    cyclesFor(src, tiny);
    EXPECT_GT(tiny.stats().get(Stat::IqStallCycles), 0u);

    OooCpu roomy(oooCfg(2));  // 32-entry IQ: same code, fewer stalls
    cyclesFor(src, roomy);
    EXPECT_LT(roomy.stats().get(Stat::IqStallCycles),
              tiny.stats().get(Stat::IqStallCycles));
}

} // namespace
} // namespace xloops
