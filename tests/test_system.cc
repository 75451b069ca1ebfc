// System-level tests: configuration presets, execution-mode plumbing,
// adaptive profiling table behaviour, scan-phase accounting, and
// cross-mode invariants on a mixed multi-loop program.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "asm/assembler.h"
#include "common/log.h"
#include "system/system.h"

namespace xloops {
namespace {

TEST(Configs, MainGridNamesAndShapes)
{
    const auto grid = configs::mainGrid();
    ASSERT_EQ(grid.size(), 6u);
    EXPECT_EQ(grid[0].name, "io");
    EXPECT_EQ(grid[5].name, "ooo/4+x");
    EXPECT_FALSE(grid[0].hasLpsu);
    EXPECT_TRUE(grid[3].hasLpsu);
    EXPECT_EQ(grid[2].gpp.width, 4u);
    EXPECT_EQ(grid[2].gpp.kind, GppConfig::Kind::OutOfOrder);
}

TEST(Configs, ByNameRoundTripsAndRejectsUnknown)
{
    // all() is what `xsim -l` lists and all byName() accepts.
    std::vector<std::string> names;
    for (const SysConfig &cfg : configs::all()) {
        EXPECT_EQ(configs::byName(cfg.name).name, cfg.name);
        names.push_back(cfg.name);
    }
    const std::vector<std::string> want = {
        "io",         "ooo/2",        "ooo/4",      "io+x",
        "ooo/2+x",    "ooo/4+x",      "ooo/4+x4+t", "ooo/4+x8",
        "ooo/4+x8+r", "ooo/4+x8+r+m", "io+xf",      "ooo/4+xf",
        "io+x2w",     "ooo/4+x2w"};
    EXPECT_EQ(names, want);
    EXPECT_EQ(configs::byName("ooo/4+x8+r+m").lpsu.lsqLoadEntries, 16u);
    EXPECT_THROW(configs::byName("pentium"), FatalError);
}

TEST(Configs, DseVariantsDifferFromBase)
{
    EXPECT_TRUE(configs::ooo4X4t().lpsu.multithreading);
    EXPECT_EQ(configs::ooo4X8().lpsu.lanes, 8u);
    EXPECT_EQ(configs::ooo4X8r().lpsu.memPorts, 2u);
    EXPECT_EQ(configs::ooo4X8r().lpsu.llfus, 2u);
}

TEST(System, SpecializedModeRequiresLpsu)
{
    const Program prog = assemble("  halt\n");
    XloopsSystem sys(configs::io());
    sys.loadProgram(prog);
    EXPECT_THROW(sys.run(prog, ExecMode::Specialized), FatalError);
    EXPECT_THROW(sys.run(prog, ExecMode::Adaptive), FatalError);
    EXPECT_NO_THROW(sys.run(prog, ExecMode::Traditional));
}

TEST(System, ModeNames)
{
    EXPECT_STREQ(execModeName(ExecMode::Traditional), "T");
    EXPECT_STREQ(execModeName(ExecMode::Specialized), "S");
    EXPECT_STREQ(execModeName(ExecMode::Adaptive), "A");
}

TEST(System, RunsAreRepeatable)
{
    const Program prog = assemble(
        "  li r1, 0\n  li r2, 64\n  la r7, out\nbody:\n"
        "  slli r8, r1, 2\n  add r9, r7, r8\n  sw r1, 0(r9)\n"
        "  xloop.uc r1, r2, body\n  halt\n"
        "  .data\nout: .space 256\n");
    XloopsSystem sys(configs::ooo2X());
    sys.loadProgram(prog);
    const Cycle first = sys.run(prog, ExecMode::Specialized).cycles;
    const Cycle second = sys.run(prog, ExecMode::Specialized).cycles;
    EXPECT_EQ(first, second);
}

TEST(System, MultipleXloopsInOneProgram)
{
    // Two different xloops back to back; both specialize, and the
    // LPSU re-scans when the resident body changes.
    const Program prog = assemble(
        "  li r1, 0\n  li r2, 32\n  la r7, a\n"
        "b1:\n"
        "  slli r8, r1, 2\n  add r9, r7, r8\n  sw r1, 0(r9)\n"
        "  xloop.uc r1, r2, b1\n"
        "  li r1, 0\n  la r7, b\n"
        "b2:\n"
        "  slli r8, r1, 2\n  add r9, r7, r8\n"
        "  slli r10, r1, 1\n  sw r10, 0(r9)\n"
        "  xloop.uc r1, r2, b2\n"
        "  halt\n"
        "  .data\na: .space 128\nb: .space 128\n");
    XloopsSystem sys(configs::ioX());
    sys.loadProgram(prog);
    const SysResult res = sys.run(prog, ExecMode::Specialized);
    EXPECT_EQ(res.xloopsSpecialized, 2u);
    EXPECT_EQ(sys.lpsuModel().stats().get(Stat::Scans), 2u);
    for (u32 i = 0; i < 32; i++) {
        EXPECT_EQ(sys.memory().readWord(prog.symbol("a") + 4 * i), i);
        EXPECT_EQ(sys.memory().readWord(prog.symbol("b") + 4 * i), 2 * i);
    }
}

TEST(Apt, ProfilesAccumulateAcrossInstancesAndDecisionSticks)
{
    AdaptiveController apt(16, 10, 100000);
    AptEntry &e = apt.lookup(0x1000);
    EXPECT_EQ(e.state, AptEntry::State::ProfileGpp);
    for (int i = 0; i < 5; i++) {
        e.gppIters++;
        e.gppCycles += 7;
    }
    EXPECT_FALSE(apt.profilingDone(e));
    for (int i = 0; i < 5; i++)
        e.gppIters++;
    EXPECT_TRUE(apt.profilingDone(e));
    e.state = AptEntry::State::DecidedLpsu;
    EXPECT_EQ(apt.lookup(0x1000).state, AptEntry::State::DecidedLpsu);
}

TEST(Apt, FifoReplacementEvictsOldEntries)
{
    AdaptiveController apt(2, 256, 2000);
    apt.lookup(0x100).state = AptEntry::State::DecidedLpsu;
    apt.lookup(0x200);
    apt.lookup(0x300);  // evicts 0x100
    EXPECT_EQ(apt.lookup(0x100).state, AptEntry::State::ProfileGpp);
}

TEST(Apt, CycleThresholdAlsoEndsProfiling)
{
    AdaptiveController apt(16, 256, 2000);
    AptEntry &e = apt.lookup(0x1000);
    e.gppIters = 3;
    e.gppCycles = 2500;
    EXPECT_TRUE(apt.profilingDone(e));
}

TEST(System, StatsMergeContainsGppAndLpsuCounters)
{
    const Program prog = assemble(
        "  li r1, 0\n  li r2, 16\n  la r7, out\nbody:\n"
        "  slli r8, r1, 2\n  add r9, r7, r8\n  sw r1, 0(r9)\n"
        "  xloop.uc r1, r2, body\n  halt\n"
        "  .data\nout: .space 64\n");
    XloopsSystem sys(configs::ioX());
    sys.loadProgram(prog);
    const SysResult res = sys.run(prog, ExecMode::Specialized);
    EXPECT_GT(res.stats.get(Stat::Insts), 0u);        // GPP side
    EXPECT_GT(res.stats.get(Stat::LaneInsts), 0u);   // LPSU side
    EXPECT_GT(res.stats.get(Stat::LpsuScanCycles), 0u);
    EXPECT_EQ(res.stats.get(Stat::CyclesTotal), res.cycles);
}

TEST(System, TraditionalIgnoresTheLpsu)
{
    const Program prog = assemble(
        "  li r1, 0\n  li r2, 16\nbody:\n  add r3, r3, r1\n"
        "  xloop.uc r1, r2, body\n  halt\n");
    XloopsSystem sys(configs::ioX());
    sys.loadProgram(prog);
    const SysResult res = sys.run(prog, ExecMode::Traditional);
    EXPECT_EQ(res.laneInsts, 0u);
    EXPECT_EQ(res.xloopsSpecialized, 0u);
}

} // namespace
} // namespace xloops
