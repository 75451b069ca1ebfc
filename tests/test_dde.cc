// Tests for the data-dependent-exit extension (xloop.om.de /
// xloop.orm.de) — the control pattern the paper leaves to future
// work. The "bound" register acts as a per-iteration exit flag; the
// LMU samples it at commit, so iterations speculatively executed
// beyond the first exiting iteration are cancelled with their stores
// still buffered in the LSQs.

#include <gtest/gtest.h>

#include "asm/assembler.h"
#include "common/log.h"
#include "compiler/codegen.h"
#include "cpu/functional.h"
#include "fuzz/harness.h"
#include "system/system.h"

namespace xloops {
namespace {

/** Linear search: exits at the first element equal to the needle.
 *  A second needle further on must never be observed. */
const char *searchSrc = R"(
  li r1, 0
  li r2, 0               # exit flag
  la r5, hay
  li r6, 4242            # needle
  la r7, foundidx
body:
  slli r10, r1, 2
  add r10, r5, r10
  lw r11, 0(r10)
  bne r11, r6, miss
  li r2, 1               # raise the exit flag
  sw r1, 0(r7)
miss:
  xloop.om.de r1, r2, body
  la r8, after
  sw r1, 0(r8)           # post-loop: idx of first iteration not run
  halt
  .data
hay:      .space 1024
foundidx: .word -1
after:    .word 0
)";

void
searchSetup(MainMemory &mem, const Program &prog, unsigned hit)
{
    for (unsigned i = 0; i < 256; i++)
        mem.writeWord(prog.symbol("hay") + 4 * i, i * 3 + 1);
    mem.writeWord(prog.symbol("hay") + 4 * hit, 4242);
    mem.writeWord(prog.symbol("hay") + 4 * (hit + 7), 4242);  // decoy
}

struct DdeRun
{
    MainMemory *mem;
    SysResult result;
};

TEST(DataDepExit, SerialSemantics)
{
    const Program prog = assemble(searchSrc);
    MainMemory mem;
    prog.loadInto(mem);
    searchSetup(mem, prog, 40);
    FunctionalExecutor exec(mem);
    exec.run(prog);
    EXPECT_EQ(mem.readWord(prog.symbol("foundidx")), 40u);
    EXPECT_EQ(mem.readWord(prog.symbol("after")), 41u);
}

TEST(DataDepExit, SpecializedMatchesSerialAndCancelsOverrun)
{
    const Program prog = assemble(searchSrc);
    for (const unsigned hit : {0u, 1u, 5u, 40u, 200u}) {
        MainMemory golden;
        prog.loadInto(golden);
        searchSetup(golden, prog, hit);
        FunctionalExecutor exec(golden);
        exec.run(prog);

        XloopsSystem sys(configs::ioX());
        sys.loadProgram(prog);
        searchSetup(sys.memory(), prog, hit);
        sys.run(prog, ExecMode::Specialized);

        EXPECT_EQ(sys.memory().readWord(prog.symbol("foundidx")),
                  golden.readWord(prog.symbol("foundidx")))
            << "hit " << hit;
        EXPECT_EQ(sys.memory().readWord(prog.symbol("foundidx")), hit);
        EXPECT_EQ(sys.memory().readWord(prog.symbol("after")), hit + 1);
        if (hit >= 5) {
            // Lanes ran past the exit; those iterations were
            // cancelled before committing anything.
            EXPECT_GT(sys.lpsuModel().stats().get(Stat::CancelledIterations),
                      0u);
        }
    }
}

TEST(DataDepExit, LongSearchSpeedsUp)
{
    const Program prog = assemble(searchSrc);
    auto cyclesOf = [&](const SysConfig &cfg, ExecMode mode) {
        XloopsSystem sys(cfg);
        sys.loadProgram(prog);
        searchSetup(sys.memory(), prog, 250);
        return sys.run(prog, mode).cycles;
    };
    const Cycle trad = cyclesOf(configs::io(), ExecMode::Traditional);
    const Cycle spec = cyclesOf(configs::ioX(), ExecMode::Specialized);
    EXPECT_LT(spec * 3, trad * 2);  // at least 1.5x on 4 lanes
}

TEST(DataDepExit, OrmVariantCarriesCirThroughExit)
{
    // Sum elements until the running sum crosses a threshold; the
    // sum is a CIR, the exit is data dependent, and the final CIR
    // value must be the serial one.
    const char *src = R"(
  li r1, 0
  li r2, 0
  li r3, 0               # running sum (CIR)
  la r5, vals
  li r6, 1000            # threshold
body:
  slli r10, r1, 2
  add r10, r5, r10
  lw r11, 0(r10)
  add r3, r3, r11
  blt r3, r6, keep
  li r2, 1
keep:
  slli r12, r1, 2
  add r12, r5, r12
  sw r3, 512(r12)        # prefix[i] = sum so far
  xloop.orm.de r1, r2, body
  la r13, sumout
  sw r3, 0(r13)
  halt
  .data
vals:   .space 512
prefix: .space 512
sumout: .word 0
)";
    const Program prog = assemble(src);
    auto setup = [&](MainMemory &mem) {
        for (unsigned i = 0; i < 128; i++)
            mem.writeWord(prog.symbol("vals") + 4 * i, 17 + (i % 5));
    };
    MainMemory golden;
    prog.loadInto(golden);
    setup(golden);
    FunctionalExecutor exec(golden);
    exec.run(prog);

    XloopsSystem sys(configs::ooo2X());
    sys.loadProgram(prog);
    setup(sys.memory());
    sys.run(prog, ExecMode::Specialized);
    EXPECT_EQ(sys.memory().readWord(prog.symbol("sumout")),
              golden.readWord(prog.symbol("sumout")));
    for (unsigned i = 0; i < 128; i++) {
        EXPECT_EQ(sys.memory().readWord(prog.symbol("prefix") + 4 * i),
                  golden.readWord(prog.symbol("prefix") + 4 * i)) << i;
    }
}

TEST(DataDepExit, ExitOnGppIterationRunsNothingOnLpsu)
{
    // The GPP's own first iteration raises the flag: the LPSU must
    // execute zero iterations.
    const Program prog = assemble(searchSrc);
    XloopsSystem sys(configs::ioX());
    sys.loadProgram(prog);
    searchSetup(sys.memory(), prog, 0);
    const SysResult res = sys.run(prog, ExecMode::Specialized);
    EXPECT_EQ(sys.memory().readWord(prog.symbol("foundidx")), 0u);
    EXPECT_EQ(res.laneInsts, 0u);
}

TEST(DataDepExit, AdaptiveModeIsCorrect)
{
    const Program prog = assemble(searchSrc);
    XloopsSystem sys(configs::ooo4X());
    sys.loadProgram(prog);
    searchSetup(sys.memory(), prog, 200);
    sys.run(prog, ExecMode::Adaptive);
    EXPECT_EQ(sys.memory().readWord(prog.symbol("foundidx")), 200u);
    EXPECT_EQ(sys.memory().readWord(prog.symbol("after")), 201u);
}

TEST(DataDepExit, IsaPredicates)
{
    EXPECT_TRUE(isDataDepExitOp(Op::XLOOP_OM_DE));
    EXPECT_TRUE(isDataDepExitOp(Op::XLOOP_ORM_DE));
    EXPECT_FALSE(isDataDepExitOp(Op::XLOOP_OM_DB));
    EXPECT_TRUE(isXloopOp(Op::XLOOP_ORM_DE));
    EXPECT_FALSE(isDynamicBoundOp(Op::XLOOP_OM_DE));
    EXPECT_EQ(xloopPattern(Op::XLOOP_OM_DE), LoopPattern::OM);
    EXPECT_EQ(xloopPattern(Op::XLOOP_ORM_DE), LoopPattern::ORM);
}

// --- dependence-analysis edge cases --------------------------------------
// Inputs at the boundary of the subscript tests: negative strides,
// coupled (different-coefficient) subscripts, zero- and single-trip
// loops, and constant offsets large enough that the strong-SIV
// distance arithmetic would wrap in 32 bits.

Loop
edgeLoop(std::vector<Stmt> body)
{
    Loop loop;
    loop.iv = "i";
    loop.lower = cst(0);
    loop.upper = var("n");
    loop.pragma = Pragma::Ordered;
    loop.body = std::move(body);
    return loop;
}

TEST(DataDepEdge, NegativeStrideCarriedDistance)
{
    // out[10-i] = out[12-i] + 1: both subscripts have coefficient -1;
    // read offset 12, write offset 10 -> distance (12-10)/-1 = -2.
    const MemDepResult r = memDepAnalysis(edgeLoop(
        {store("out", sub(cst(10), var("i")),
               add(ld("out", sub(cst(12), var("i"))), cst(1)))}));
    EXPECT_TRUE(r.hasCarriedDep);
    bool sawDist = false;
    for (const auto &p : r.pairs) {
        if (p.verdict == MemDepVerdict::CarriedDistance) {
            sawDist = true;
            EXPECT_EQ(p.distance, -2);
        }
    }
    EXPECT_TRUE(sawDist);
}

TEST(DataDepEdge, NegativeStrideSameCellIsIntraIteration)
{
    // out[10-i] = out[10-i] + 1: distance 0 under a reversed stride.
    const MemDepResult r = memDepAnalysis(edgeLoop(
        {store("out", sub(cst(10), var("i")),
               add(ld("out", sub(cst(10), var("i"))), cst(1)))}));
    EXPECT_FALSE(r.hasCarriedDep);
    bool sawIntra = false;
    for (const auto &p : r.pairs)
        if (p.verdict == MemDepVerdict::IntraIteration)
            sawIntra = true;
    EXPECT_TRUE(sawIntra);
}

TEST(DataDepEdge, CoupledSubscriptsAssumedCarried)
{
    // write out[i], read out[2i]: coefficients differ, so the strong
    // SIV test does not apply and the pair must stay AssumedCarried —
    // the subscripts do alias (i = 0), so Independent would be wrong.
    const MemDepResult r = memDepAnalysis(edgeLoop(
        {store("out", var("i"),
               ld("out", mul(var("i"), cst(2))))}));
    EXPECT_TRUE(r.hasCarriedDep);
    bool sawAssumed = false;
    for (const auto &p : r.pairs)
        if (p.verdict == MemDepVerdict::AssumedCarried)
            sawAssumed = true;
    EXPECT_TRUE(sawAssumed);
}

TEST(DataDepEdge, OverflowAdjacentCarriedDistance)
{
    // write out[3i - 1073741825], read out[3i + 1073741824]: the true
    // offset difference 2147483649 = 3 * 715827883 is divisible by 3;
    // computed in 32 bits it wraps to -2147483647, which is NOT, and
    // the pair would be misclassified as Independent. The i64
    // arithmetic in the strong-SIV test must call it carried.
    const MemDepResult r = memDepAnalysis(edgeLoop(
        {store("out",
               add(mul(var("i"), cst(3)), cst(-1073741825)),
               ld("out",
                  add(mul(var("i"), cst(3)), cst(1073741824))))}));
    bool sawCarried = false;
    for (const auto &p : r.pairs)
        if (p.verdict == MemDepVerdict::CarriedDistance)
            sawCarried = true;
    EXPECT_TRUE(sawCarried);
    EXPECT_TRUE(r.hasCarriedDep);
}

TEST(DataDepEdge, OverflowAdjacentIndependent)
{
    // write out[3i - 1073741825], read out[3i + 1073741825]: the true
    // difference 2147483650 has residue 1 mod 3 -> Independent; the
    // 32-bit wrap -2147483646 IS divisible by 3 and would fabricate a
    // bogus carried distance.
    const MemDepResult r = memDepAnalysis(edgeLoop(
        {store("out",
               add(mul(var("i"), cst(3)), cst(-1073741825)),
               ld("out",
                  add(mul(var("i"), cst(3)), cst(1073741825))))}));
    for (const auto &p : r.pairs)
        EXPECT_NE(p.verdict, MemDepVerdict::CarriedDistance);
}

TEST(DataDepEdge, ZeroAndSingleTripLoopsExecuteIdentically)
{
    // Trip counts 0 and 1 are the degenerate ends of every xloop
    // encoding: the specialized run must still match the traditional
    // one byte-identically (and trip 0 must not run the body at all).
    for (const char *header : {"i = 0; i < 0", "i = 0; i < 1",
                               "i = 3; i < 3"}) {
        const std::string src =
            "array B[4] = {9, 9, 9, 9};\n"
            "let s = 1;\n"
            "#pragma xloops ordered\n"
            "for (" + std::string(header) + "; i++) {\n"
            "    s = s + B[i];\n"
            "    B[i] = s;\n"
            "}\n";
        GenProgram p;
        p.name = "trip-edge";
        p.source = src;
        FuzzOptions opts;
        opts.checkTruth = false;
        const FuzzVerdict v = checkProgram(p, opts);
        EXPECT_TRUE(v.ok())
            << header << ": " << v.firstPhase() << " "
            << (v.failures.empty() ? "" : v.failures[0].detail);
    }
}

} // namespace
} // namespace xloops
