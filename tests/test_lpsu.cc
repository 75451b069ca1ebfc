// LPSU specialized-execution tests: every inter-iteration dependence
// pattern (uc, or, om, orm, ua, uc.db) is checked for architectural
// correctness against the serial golden model, plus speedup sanity,
// squash behaviour, scan residency, IB fallback, and nesting.

#include <gtest/gtest.h>

#include "asm/assembler.h"
#include "cpu/functional.h"
#include "system/system.h"

namespace xloops {
namespace {

/** Run under a config/mode and also serially; return both memories. */
struct DualRun
{
    Program prog;
    XloopsSystem sys;
    SysResult result;
    MainMemory golden;

    DualRun(const std::string &src, const SysConfig &cfg, ExecMode mode)
        : prog(assemble(src)), sys(cfg)
    {
        sys.loadProgram(prog);
        result = sys.run(prog, mode);
        prog.loadInto(golden);
        FunctionalExecutor exec(golden);
        exec.run(prog);
    }

    void
    expectRegionMatchesGolden(const std::string &symbol, unsigned words)
    {
        const Addr base = prog.symbol(symbol);
        for (unsigned i = 0; i < words; i++) {
            EXPECT_EQ(sys.memory().readWord(base + 4 * i),
                      golden.readWord(base + 4 * i))
                << symbol << "[" << i << "]";
        }
    }
};

TEST(LpsuUc, VectorAddMatchesSerialAndSpeedsUp)
{
    // Fill a and b through .word directives instead: simpler — use
    // indices as data by initializing in a serial prologue loop.
    const std::string src =
        "  li r1, 0\n"
        "  li r2, 64\n"
        "  la r5, a\n"
        "  la r6, b\n"
        "init:\n"                     // serial init (traditional loop)
        "  slli r8, r1, 2\n"
        "  add r9, r5, r8\n"
        "  sw r1, 0(r9)\n"
        "  add r9, r6, r8\n"
        "  slli r10, r1, 1\n"
        "  sw r10, 0(r9)\n"
        "  addi r1, r1, 1\n"
        "  blt r1, r2, init\n"
        "  li r1, 0\n"
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
        "a: .space 256\n"
        "b: .space 256\n"
        "c: .space 256\n";

    DualRun spec(src, configs::ioX(), ExecMode::Specialized);
    spec.expectRegionMatchesGolden("c", 64);
    // c[i] = i + 2i = 3i
    for (unsigned i = 0; i < 64; i++)
        EXPECT_EQ(spec.sys.memory().readWord(spec.prog.symbol("c") + 4 * i),
                  3 * i);
    EXPECT_EQ(spec.result.xloopsSpecialized, 1u);
    EXPECT_GT(spec.result.laneInsts, 0u);

    DualRun trad(src, configs::ioX(), ExecMode::Traditional);
    trad.expectRegionMatchesGolden("c", 64);
    EXPECT_LT(spec.result.cycles, trad.result.cycles);  // speedup
}

TEST(LpsuUc, FourLanesApproachFourX)
{
    // Compute-heavy independent iterations: speedup should approach
    // the lane count.
    const std::string src =
        "  li r1, 0\n"
        "  li r2, 256\n"
        "  la r7, out\n"
        "body:\n"
        "  slli r8, r1, 2\n"
        "  add r9, r7, r8\n"
        "  add r10, r1, r1\n"
        "  add r10, r10, r1\n"
        "  add r10, r10, r1\n"
        "  add r10, r10, r1\n"
        "  add r10, r10, r1\n"
        "  add r10, r10, r1\n"
        "  xor r10, r10, r1\n"
        "  and r11, r10, r1\n"
        "  or r10, r10, r11\n"
        "  sw r10, 0(r9)\n"
        "  xloop.uc r1, r2, body\n"
        "  halt\n"
        "  .data\n"
        "out: .space 1024\n";
    DualRun spec(src, configs::ioX(), ExecMode::Specialized);
    DualRun trad(src, configs::io(), ExecMode::Traditional);
    spec.expectRegionMatchesGolden("out", 256);
    const double speedup = static_cast<double>(trad.result.cycles) /
                           static_cast<double>(spec.result.cycles);
    EXPECT_GT(speedup, 2.4) << "speedup " << speedup;
    EXPECT_LT(speedup, 4.5) << "speedup " << speedup;
}

TEST(LpsuUc, XiCorrectUnderLoadImbalance)
{
    // Iterations have data-dependent work (a variable inner delay),
    // so uc load balancing executes different counts per lane; the
    // xi-updated pointer must still be exact for every iteration.
    const std::string src =
        "  li r1, 0\n"
        "  li r2, 100\n"
        "  la r7, out\n"
        "body:\n"
        "  andi r8, r1, 7\n"
        "  li r9, 0\n"
        "spin:\n"
        "  addi r9, r9, 1\n"
        "  blt r9, r8, spin\n"
        "  sw r1, 0(r7)\n"
        "  addiu.xi r7, 4\n"
        "  xloop.uc r1, r2, body\n"
        "  halt\n"
        "  .data\n"
        "out: .space 400\n";
    DualRun spec(src, configs::ioX(), ExecMode::Specialized);
    for (unsigned i = 0; i < 100; i++)
        EXPECT_EQ(spec.sys.memory().readWord(spec.prog.symbol("out") + 4 * i),
                  i) << i;
}

TEST(LpsuOr, PrefixSumMatchesSerial)
{
    // out[i] = sum of 0..i; rX is the CIR.
    const std::string src =
        "  li r1, 0\n"
        "  li r2, 128\n"
        "  li r3, 0\n"          // rX: running sum (CIR)
        "  la r7, out\n"
        "body:\n"
        "  add r3, r3, r1\n"    // CIR read+write
        "  sw r3, 0(r7)\n"
        "  addiu.xi r7, 4\n"
        "  xloop.or r1, r2, body\n"
        "  la r8, fin\n"
        "  sw r3, 0(r8)\n"      // CIR is a defined live-out
        "  halt\n"
        "  .data\n"
        "out: .space 512\n"
        "fin: .word 0\n";
    DualRun spec(src, configs::ioX(), ExecMode::Specialized);
    spec.expectRegionMatchesGolden("out", 128);
    spec.expectRegionMatchesGolden("fin", 1);
    u32 expect = 0;
    for (u32 i = 0; i < 128; i++) {
        expect += i;
        EXPECT_EQ(spec.sys.memory().readWord(spec.prog.symbol("out") + 4 * i),
                  expect);
    }
}

TEST(LpsuOr, ShortCriticalPathPipelines)
{
    // CIR critical path is one add; the rest of the body is
    // independent work that should overlap across lanes.
    const std::string src =
        "  li r1, 0\n"
        "  li r2, 200\n"
        "  li r3, 0\n"
        "  la r7, out\n"
        "body:\n"
        "  add r3, r3, r1\n"          // CIR update (early in body)
        "  slli r8, r1, 2\n"
        "  add r9, r7, r8\n"
        "  add r10, r1, r1\n"
        "  add r10, r10, r1\n"
        "  add r10, r10, r1\n"
        "  xor r10, r10, r3\n"
        "  sw r10, 0(r9)\n"
        "  xloop.or r1, r2, body\n"
        "  halt\n"
        "  .data\n"
        "out: .space 800\n";
    DualRun spec(src, configs::ioX(), ExecMode::Specialized);
    DualRun trad(src, configs::io(), ExecMode::Traditional);
    spec.expectRegionMatchesGolden("out", 200);
    EXPECT_LT(spec.result.cycles * 2, trad.result.cycles);
}

TEST(LpsuOr, ConditionalCirUpdateHandled)
{
    // The CIR write is skipped on odd iterations; the lane must still
    // forward the (unchanged) CIR value to the next iteration.
    const std::string src =
        "  li r1, 0\n"
        "  li r2, 50\n"
        "  li r3, 0\n"
        "  la r7, out\n"
        "body:\n"
        "  andi r8, r1, 1\n"
        "  add r9, r3, r0\n"     // read CIR first
        "  bnez r8, skip\n"
        "  add r3, r3, r1\n"     // conditional CIR write
        "skip:\n"
        "  slli r10, r1, 2\n"
        "  add r11, r7, r10\n"
        "  sw r9, 0(r11)\n"
        "  xloop.or r1, r2, body\n"
        "  halt\n"
        "  .data\n"
        "out: .space 200\n";
    DualRun spec(src, configs::ioX(), ExecMode::Specialized);
    spec.expectRegionMatchesGolden("out", 50);
}

const std::string ksackLikeSrc =
    // out[i] = out[i-K] + w[i], a genuine cross-iteration memory
    // dependence with distance K=2 (ordered through memory).
    "  li r1, 0\n"
    "  li r2, 96\n"
    "  la r7, out\n"
    "  la r6, w\n"
    "  li r5, 0\n"
    "init:\n"
    "  slli r8, r5, 2\n"
    "  add r9, r6, r8\n"
    "  andi r10, r5, 15\n"
    "  sw r10, 0(r9)\n"
    "  addi r5, r5, 1\n"
    "  blt r5, r2, init\n"
    "  li r1, 2\n"              // start at i=2
    "body:\n"
    "  slli r8, r1, 2\n"
    "  add r9, r7, r8\n"
    "  lw r10, -8(r9)\n"        // out[i-2]: cross-iteration load
    "  add r11, r6, r8\n"
    "  lw r12, 0(r11)\n"
    "  add r13, r10, r12\n"
    "  sw r13, 0(r9)\n"
    "  xloop.om r1, r2, body\n"
    "  halt\n"
    "  .data\n"
    "w:   .space 384\n"
    "out: .space 384\n";

TEST(LpsuOm, CrossIterationMemoryDepMatchesSerial)
{
    DualRun spec(ksackLikeSrc, configs::ioX(), ExecMode::Specialized);
    spec.expectRegionMatchesGolden("out", 96);
    // Distance-2 dependence with 4 lanes: lanes 2 ahead must observe
    // violations/stalls; at least the run must be architecturally
    // identical to serial.
    EXPECT_GT(spec.result.laneInsts, 0u);
}

TEST(LpsuOm, ConflictsCauseSquashes)
{
    DualRun spec(ksackLikeSrc, configs::ioX(), ExecMode::Specialized);
    const u64 squashes = spec.sys.lpsuModel().stats().get(Stat::Squashes);
    EXPECT_GT(squashes, 0u);
}

TEST(LpsuOm, IndependentIterationsDoNotSquash)
{
    // om-annotated loop whose iterations never actually conflict:
    // speculation should find the parallelism with zero squashes.
    const std::string src =
        "  li r1, 0\n"
        "  li r2, 64\n"
        "  la r7, out\n"
        "body:\n"
        "  slli r8, r1, 2\n"
        "  add r9, r7, r8\n"
        "  lw r10, 0(r9)\n"
        "  add r10, r10, r1\n"
        "  sw r10, 0(r9)\n"
        "  xloop.om r1, r2, body\n"
        "  halt\n"
        "  .data\n"
        "out: .space 256\n";
    DualRun spec(src, configs::ioX(), ExecMode::Specialized);
    spec.expectRegionMatchesGolden("out", 64);
    EXPECT_EQ(spec.sys.lpsuModel().stats().get(Stat::Squashes), 0u);
    DualRun trad(src, configs::io(), ExecMode::Traditional);
    EXPECT_LT(spec.result.cycles, trad.result.cycles);
}

TEST(LpsuOrm, RegisterAndMemoryOrderingTogether)
{
    // Greedy matching flavour: a CIR counter plus ordered memory
    // updates (out[k++] = i when condition).
    const std::string src =
        "  li r1, 0\n"
        "  li r2, 60\n"
        "  li r3, 0\n"          // k (CIR)
        "  la r7, out\n"
        "  la r6, taken\n"
        "body:\n"
        "  andi r8, r1, 3\n"
        "  bnez r8, skip\n"
        "  slli r9, r3, 2\n"
        "  add r10, r7, r9\n"
        "  sw r1, 0(r10)\n"      // out[k] = i (memory ordered)
        "  addi r3, r3, 1\n"     // k++ (register ordered)
        "skip:\n"
        "  slli r11, r1, 2\n"
        "  add r12, r6, r11\n"
        "  sw r8, 0(r12)\n"
        "  xloop.orm r1, r2, body\n"
        "  la r13, kf\n"
        "  sw r3, 0(r13)\n"
        "  halt\n"
        "  .data\n"
        "out:   .space 240\n"
        "taken: .space 240\n"
        "kf:    .word 0\n";
    DualRun spec(src, configs::ioX(), ExecMode::Specialized);
    spec.expectRegionMatchesGolden("out", 60);
    spec.expectRegionMatchesGolden("taken", 60);
    spec.expectRegionMatchesGolden("kf", 1);
    EXPECT_EQ(spec.sys.memory().readWord(spec.prog.symbol("kf")), 15u);
}

TEST(LpsuUa, AtomicHistogramTotalsCorrect)
{
    // Each iteration amoadds into one of 8 buckets. ua allows any
    // order; bucket totals must match the serial run exactly.
    const std::string src =
        "  li r1, 0\n"
        "  li r2, 200\n"
        "  la r7, hist\n"
        "body:\n"
        "  andi r8, r1, 7\n"
        "  slli r8, r8, 2\n"
        "  add r9, r7, r8\n"
        "  li r10, 1\n"
        "  amoadd r11, r10, (r9)\n"
        "  xloop.ua r1, r2, body\n"
        "  halt\n"
        "  .data\n"
        "hist: .space 32\n";
    DualRun spec(src, configs::ioX(), ExecMode::Specialized);
    spec.expectRegionMatchesGolden("hist", 8);
    EXPECT_EQ(spec.sys.memory().readWord(spec.prog.symbol("hist")), 25u);
}

TEST(LpsuDb, DynamicBoundWorklistProcessesEverything)
{
    // Worklist seeded with one item; items < 40 append item+1 via an
    // AMO-reserved slot and raise the bound.
    const std::string src =
        "  li r1, 0\n"
        "  li r2, 1\n"                // bound starts at 1
        "  la r7, wl\n"
        "  la r6, tail\n"
        "  li r8, 1\n"
        "  sw r8, 0(r6)\n"            // tail = 1 (item 0 in list)
        "  sw r0, 0(r7)\n"            // wl[0] = 0
        "  la r12, sum\n"
        "body:\n"
        "  slli r8, r1, 2\n"
        "  add r9, r7, r8\n"
        "  lw r10, 0(r9)\n"           // item = wl[i]
        "  lw r11, 0(r12)\n"
        "  add r11, r11, r10\n"
        "  sw r11, 0(r12)\n"          // sum += item (racy but 1 writer
                                      // per i in practice? use amo)
        "  li r13, 40\n"
        "  bge r10, r13, done\n"
        "  li r14, 1\n"
        "  amoadd r15, r14, (r6)\n"   // slot = tail++ (atomic)
        "  slli r16, r15, 2\n"
        "  add r17, r7, r16\n"
        "  addi r18, r10, 1\n"
        "  sw r18, 0(r17)\n"          // wl[slot] = item+1
        "  addi r2, r15, 1\n"         // bound = slot+1 (from the AMO
                                      // result, so lanes agree)
        "done:\n"
        "  xloop.uc.db r1, r2, body\n"
        "  la r20, cnt\n"
        "  sw r1, 0(r20)\n"
        "  halt\n"
        "  .data\n"
        "wl:   .space 1024\n"
        "tail: .word 0\n"
        "sum:  .word 0\n"
        "cnt:  .word 0\n";
    // NOTE: the sum update is load-add-store on shared memory; with
    // uc semantics that is racy, but items are processed one per
    // iteration and the worklist here is a chain, so only the bound
    // and tail are contended (via AMO). To keep the test deterministic
    // we check the worklist contents and count, not the racy sum.
    DualRun spec(src, configs::ioX(), ExecMode::Specialized);
    EXPECT_EQ(spec.sys.memory().readWord(spec.prog.symbol("cnt")), 41u);
    for (unsigned i = 0; i <= 40; i++)
        EXPECT_EQ(spec.sys.memory().readWord(spec.prog.symbol("wl") + 4 * i),
                  i) << i;
}

TEST(LpsuFallback, OversizedBodyRunsTraditionally)
{
    std::string src =
        "  li r1, 0\n"
        "  li r2, 10\n"
        "  la r7, out\n"
        "body:\n";
    for (int i = 0; i < 200; i++)  // > 128 IB entries
        src += "  add r8, r1, r2\n";
    src +=
        "  slli r9, r1, 2\n"
        "  add r10, r7, r9\n"
        "  sw r8, 0(r10)\n"
        "  xloop.uc r1, r2, body\n"
        "  halt\n"
        "  .data\n"
        "out: .space 40\n";
    DualRun spec(src, configs::ioX(), ExecMode::Specialized);
    spec.expectRegionMatchesGolden("out", 10);
    EXPECT_EQ(spec.result.xloopsSpecialized, 0u);
    EXPECT_EQ(spec.sys.lpsuModel().stats().get(Stat::IbFallbacks), 1u);
}

TEST(LpsuNesting, OuterOmWithInnerTraditionalLoop)
{
    // Floyd-Warshall shape: outer xloop.om (hinted), inner loop runs
    // traditionally inside each lane.
    const std::string src =
        "  li r1, 0\n"
        "  li r2, 16\n"           // outer bound
        "  la r7, m\n"
        "body:\n"
        "  li r3, 0\n"
        "  li r4, 16\n"           // inner bound
        "  slli r8, r1, 6\n"      // row i * 64 bytes
        "  add r9, r7, r8\n"
        "inner:\n"
        "  slli r10, r3, 2\n"
        "  add r11, r9, r10\n"
        "  lw r12, 0(r11)\n"
        "  add r12, r12, r1\n"
        "  add r12, r12, r3\n"
        "  sw r12, 0(r11)\n"
        "  addi r3, r3, 1\n"
        "  blt r3, r4, inner\n"
        "  xloop.om r1, r2, body\n"
        "  halt\n"
        "  .data\n"
        "m: .space 1024\n";
    DualRun spec(src, configs::ioX(), ExecMode::Specialized);
    spec.expectRegionMatchesGolden("m", 256);
}

TEST(LpsuScan, ResidencySkipsInstructionRewrites)
{
    // The same xloop executed twice (outer traditional loop): the
    // second scan should not re-write instructions.
    const std::string src =
        "  li r20, 0\n"
        "  li r21, 2\n"
        "outer:\n"
        "  li r1, 0\n"
        "  li r2, 32\n"
        "  la r7, out\n"
        "body:\n"
        "  slli r8, r1, 2\n"
        "  add r9, r7, r8\n"
        "  sw r1, 0(r9)\n"
        "  xloop.uc r1, r2, body\n"
        "  addi r20, r20, 1\n"
        "  blt r20, r21, outer\n"
        "  halt\n"
        "  .data\n"
        "out: .space 128\n";
    DualRun spec(src, configs::ioX(), ExecMode::Specialized);
    const StatGroup &ls = spec.sys.lpsuModel().stats();
    EXPECT_EQ(ls.get(Stat::Scans), 2u);
    EXPECT_EQ(ls.get(Stat::ScanInstWrites), 3u);  // body written once
}

TEST(LpsuMt, MultithreadingCorrectAndNotSlower)
{
    // RAW-stall-heavy uc body (dependent chain): vertical MT should
    // hide the stalls.
    const std::string src =
        "  li r1, 0\n"
        "  li r2, 256\n"
        "  la r7, out\n"
        "body:\n"
        "  slli r8, r1, 2\n"
        "  add r9, r7, r8\n"
        "  mul r10, r1, r1\n"
        "  mul r11, r10, r1\n"
        "  add r12, r11, r10\n"
        "  sw r12, 0(r9)\n"
        "  xloop.uc r1, r2, body\n"
        "  halt\n"
        "  .data\n"
        "out: .space 1024\n";
    DualRun mt(src, configs::ooo4X4t(), ExecMode::Specialized);
    DualRun base(src, configs::ooo4X(), ExecMode::Specialized);
    mt.expectRegionMatchesGolden("out", 256);
    EXPECT_LE(mt.result.cycles, base.result.cycles + 32);
}

TEST(LpsuDse, EightLanesFasterOnParallelWork)
{
    const std::string src =
        "  li r1, 0\n"
        "  li r2, 512\n"
        "  la r7, out\n"
        "body:\n"
        "  slli r8, r1, 2\n"
        "  add r9, r7, r8\n"
        "  add r10, r1, r1\n"
        "  add r10, r10, r1\n"
        "  add r10, r10, r1\n"
        "  add r10, r10, r1\n"
        "  add r10, r10, r1\n"
        "  add r10, r10, r1\n"
        "  add r10, r10, r1\n"
        "  add r10, r10, r1\n"
        "  sw r10, 0(r9)\n"
        "  xloop.uc r1, r2, body\n"
        "  halt\n"
        "  .data\n"
        "out: .space 2048\n";
    DualRun x4(src, configs::ooo4X(), ExecMode::Specialized);
    DualRun x8(src, configs::ooo4X8(), ExecMode::Specialized);
    x8.expectRegionMatchesGolden("out", 512);
    EXPECT_LT(x8.result.cycles, x4.result.cycles);
}

TEST(LpsuAdaptive, SlowSpecializationMigratesBackToGpp)
{
    // The CIR is read first and written last, so the in-order lanes
    // fully serialize; the body also carries independent work that a
    // 4-way OoO overlaps across iterations. ooo/4 traditional wins.
    const std::string src =
        "  li r1, 0\n"
        "  li r2, 2000\n"
        "  li r3, 1\n"          // CIR: read first, written last
        "  la r7, out\n"
        "body:\n"
        "  add r4, r3, r1\n"    // consume CIR early
        "  slli r8, r1, 2\n"    // 7 CIR-independent ops (OoO overlaps
        "  add r9, r7, r8\n"    // these across iterations)
        "  add r10, r1, r1\n"
        "  xor r10, r10, r8\n"
        "  or r11, r10, r1\n"
        "  and r12, r11, r10\n"
        "  add r12, r12, r11\n"
        "  slli r5, r4, 1\n"    // serial chain to the final CIR write
        "  xor r5, r5, r1\n"
        "  add r5, r5, r4\n"
        "  srli r6, r5, 2\n"
        "  add r3, r3, r6\n"    // last CIR write: long critical path
        "  sw r12, 0(r9)\n"
        "  xloop.or r1, r2, body\n"
        "  halt\n"
        "  .data\n"
        "out: .space 8000\n";
    DualRun adaptive(src, configs::ooo4X(), ExecMode::Adaptive);
    DualRun spec(src, configs::ooo4X(), ExecMode::Specialized);
    DualRun trad(src, configs::ooo4X(), ExecMode::Traditional);
    adaptive.expectRegionMatchesGolden("out", 2000);
    // Specialization should be slower than traditional here, and
    // adaptive should land near the better (traditional) side.
    EXPECT_GT(spec.result.cycles, trad.result.cycles);
    EXPECT_LT(adaptive.result.cycles,
              spec.result.cycles + spec.result.cycles / 10);
    EXPECT_LT(adaptive.result.cycles,
              trad.result.cycles + trad.result.cycles / 3);
}

TEST(LpsuAdaptive, FastSpecializationStaysOnLpsu)
{
    const std::string src =
        "  li r1, 0\n"
        "  li r2, 4000\n"
        "  la r7, out\n"
        "body:\n"
        "  slli r8, r1, 2\n"
        "  add r9, r7, r8\n"
        "  mul r10, r1, r1\n"
        "  sw r10, 0(r9)\n"
        "  xloop.uc r1, r2, body\n"
        "  halt\n"
        "  .data\n"
        "out: .space 16000\n";
    DualRun adaptive(src, configs::ioX(), ExecMode::Adaptive);
    DualRun spec(src, configs::ioX(), ExecMode::Specialized);
    DualRun trad(src, configs::ioX(), ExecMode::Traditional);
    adaptive.expectRegionMatchesGolden("out", 4000);
    EXPECT_LT(spec.result.cycles, trad.result.cycles);
    // Adaptive pays the GPP profiling phase but must stay close to
    // pure specialized execution.
    EXPECT_LT(adaptive.result.cycles,
              spec.result.cycles + trad.result.cycles / 4);
}

TEST(LpsuHint, NoHintMeansNoSpecialization)
{
    const std::string src =
        "  li r1, 0\n"
        "  li r2, 32\n"
        "  la r7, out\n"
        "body:\n"
        "  slli r8, r1, 2\n"
        "  add r9, r7, r8\n"
        "  sw r1, 0(r9)\n"
        "  xloop.uc r1, r2, body, nohint\n"
        "  halt\n"
        "  .data\n"
        "out: .space 128\n";
    DualRun spec(src, configs::ioX(), ExecMode::Specialized);
    spec.expectRegionMatchesGolden("out", 32);
    EXPECT_EQ(spec.result.xloopsSpecialized, 0u);
}

TEST(LpsuEdge, ZeroRemainingIterations)
{
    // Loop whose bound equals start+1: the GPP's first iteration is
    // the only one; the LPSU has nothing to do.
    const std::string src =
        "  li r1, 0\n"
        "  li r2, 1\n"
        "  la r7, out\n"
        "body:\n"
        "  sw r1, 0(r7)\n"
        "  xloop.uc r1, r2, body\n"
        "  halt\n"
        "  .data\n"
        "out: .word 0\n";
    DualRun spec(src, configs::ioX(), ExecMode::Specialized);
    spec.expectRegionMatchesGolden("out", 1);
    EXPECT_EQ(spec.result.xloopsSpecialized, 0u);
}

TEST(LpsuStats, Fig6CategoriesArePopulated)
{
    DualRun spec(ksackLikeSrc, configs::ioX(), ExecMode::Specialized);
    const StatGroup &ls = spec.sys.lpsuModel().stats();
    EXPECT_GT(ls.get(Stat::LaneExecCycles), 0u);
    // The distance-2 memory dependence forces commit waits or
    // squashes on the far lanes.
    EXPECT_GT(ls.get(Stat::LaneCommitStallCycles) + ls.get(Stat::Squashes),
              0u);
}

} // namespace
} // namespace xloops
