// Robustness subsystem tests: deterministic fault injection, the
// no-commit watchdog, squash-storm serialization with traditional
// fallback, the instruction-limit valve diagnosis, and golden-checker
// equivalence of the Table II kernels under adversarial schedules.

#include <gtest/gtest.h>

#include "asm/assembler.h"
#include "common/fault.h"
#include "common/sim_error.h"
#include "cpu/functional.h"
#include "kernels/kernel.h"
#include "system/system.h"

namespace xloops {
namespace {

// --------------------------------------------------------------------
// FaultInjector unit behaviour
// --------------------------------------------------------------------

TEST(FaultInjector, DisabledInjectorNeverFires)
{
    FaultInjector inj{FaultConfig{}};  // seed 0: disabled
    EXPECT_FALSE(inj.enabled());
    for (int i = 0; i < 1000; i++) {
        EXPECT_EQ(inj.memJitter(), 0u);
        EXPECT_FALSE(inj.forceSquash());
        EXPECT_FALSE(inj.forceCibFull());
        EXPECT_FALSE(inj.forceLsqFull());
        EXPECT_EQ(inj.broadcastDelay(), 0u);
        EXPECT_FALSE(inj.triggerMigration());
    }
    EXPECT_EQ(inj.injectedSquashes(), 0u);
    EXPECT_EQ(inj.injectedJitters(), 0u);
}

TEST(FaultInjector, SameSeedSameSchedule)
{
    const FaultConfig cfg = FaultConfig::uniform(42, 0.1);
    FaultInjector a(cfg);
    FaultInjector b(cfg);
    for (int i = 0; i < 5000; i++) {
        EXPECT_EQ(a.memJitter(), b.memJitter());
        EXPECT_EQ(a.forceSquash(), b.forceSquash());
        EXPECT_EQ(a.forceCibFull(), b.forceCibFull());
        EXPECT_EQ(a.forceLsqFull(), b.forceLsqFull());
        EXPECT_EQ(a.broadcastDelay(), b.broadcastDelay());
        EXPECT_EQ(a.triggerMigration(), b.triggerMigration());
    }
    EXPECT_EQ(a.injectedSquashes(), b.injectedSquashes());
    EXPECT_EQ(a.injectedJitters(), b.injectedJitters());
}

TEST(FaultInjector, DifferentSeedsDiverge)
{
    FaultInjector a(FaultConfig::uniform(1, 0.1));
    FaultInjector b(FaultConfig::uniform(2, 0.1));
    bool diverged = false;
    for (int i = 0; i < 5000 && !diverged; i++)
        diverged = a.forceSquash() != b.forceSquash() ||
                   a.memJitter() != b.memJitter();
    EXPECT_TRUE(diverged);
}

TEST(FaultInjector, RatesActuallyFire)
{
    FaultInjector inj(FaultConfig::uniform(7, 0.25));
    ASSERT_TRUE(inj.enabled());
    unsigned squashes = 0;
    u64 jitterEvents = 0;
    u64 jitterCycles = 0;
    for (int i = 0; i < 2000; i++) {
        if (inj.forceSquash())
            squashes++;
        if (const Cycle j = inj.memJitter()) {
            jitterEvents++;
            jitterCycles += j;
            EXPECT_LE(j, 8u);  // memJitterMax default
        }
    }
    EXPECT_GT(squashes, 0u);
    EXPECT_GT(jitterCycles, 0u);
    EXPECT_EQ(inj.injectedSquashes(), squashes);
    EXPECT_EQ(inj.injectedJitters(), jitterEvents);
}

// --------------------------------------------------------------------
// End-to-end helpers
// --------------------------------------------------------------------

/** Run src specialized under cfg and serially; keep both memories. */
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

/** om loop where every iteration read-modify-writes one shared word:
 *  each speculative iteration genuinely violates, so squashes arrive
 *  as fast as the lanes can speculate — a synthetic squash storm. */
const std::string stormSrc =
    "  li r1, 0\n"
    "  li r2, 160\n"
    "  la r7, acc\n"
    "  la r6, out\n"
    "body:\n"
    "  lw r8, 0(r7)\n"
    "  addi r9, r1, 1\n"
    "  add r8, r8, r9\n"
    "  sw r8, 0(r7)\n"
    "  slli r10, r1, 2\n"
    "  add r11, r6, r10\n"
    "  sw r8, 0(r11)\n"
    "  xloop.om r1, r2, body\n"
    "  halt\n"
    "  .data\n"
    "acc: .word 0\n"
    "out: .space 640\n";

// --------------------------------------------------------------------
// Squash-storm degradation
// --------------------------------------------------------------------

TEST(SquashStorm, SerializesThenFallsBackAndStaysCorrect)
{
    SysConfig cfg = configs::ioX();
    cfg.lpsu.stormWindow = 200;
    cfg.lpsu.stormThreshold = 6;
    cfg.lpsu.stormBackoffCycles = 32;
    cfg.lpsu.maxStorms = 1;
    DualRun run(stormSrc, cfg, ExecMode::Specialized);

    const StatGroup &ls = run.sys.lpsuModel().stats();
    EXPECT_GE(ls.get(Stat::LpsuStormSerializations), 1u)
        << "the storm detector never fired";
    EXPECT_GE(ls.get(Stat::LpsuFallbacks), 1u)
        << "the LPSU never degraded to traditional execution";

    // Architectural state is exact despite serialize + mid-loop
    // abandonment: acc == sum(1..160) and every out[i] matches serial.
    run.expectRegionMatchesGolden("acc", 1);
    run.expectRegionMatchesGolden("out", 160);
    EXPECT_EQ(run.sys.memory().readWord(run.prog.symbol("acc")),
              160u * 161u / 2u);
}

TEST(SquashStorm, SerializationAloneRecoversWithoutFallback)
{
    // Generous maxStorms: storms serialize (making forward progress
    // one iteration at a time) but the loop finishes on the LPSU.
    SysConfig cfg = configs::ioX();
    cfg.lpsu.stormWindow = 200;
    cfg.lpsu.stormThreshold = 6;
    cfg.lpsu.stormBackoffCycles = 64;
    cfg.lpsu.maxStorms = 1000;
    DualRun run(stormSrc, cfg, ExecMode::Specialized);

    const StatGroup &ls = run.sys.lpsuModel().stats();
    EXPECT_GE(ls.get(Stat::LpsuStormSerializations), 1u);
    EXPECT_EQ(ls.get(Stat::LpsuFallbacks), 0u);
    run.expectRegionMatchesGolden("acc", 1);
    run.expectRegionMatchesGolden("out", 160);
}

TEST(SquashStorm, SystemCooldownRunsLoopTraditionally)
{
    // After a storm fallback the system demotes that PC for a
    // backed-off number of encounters; the re-encountered loop must
    // still produce the exact serial result.
    SysConfig cfg = configs::ioX();
    cfg.lpsu.stormWindow = 400;
    cfg.lpsu.stormThreshold = 4;
    cfg.lpsu.stormBackoffCycles = 16;
    cfg.lpsu.maxStorms = 0;  // first storm already abandons
    DualRun run(stormSrc, cfg, ExecMode::Specialized);
    run.expectRegionMatchesGolden("acc", 1);
    run.expectRegionMatchesGolden("out", 160);
    EXPECT_GE(run.sys.lpsuModel().stats().get(Stat::LpsuFallbacks), 1u);
}

// --------------------------------------------------------------------
// Watchdog and limit valves
// --------------------------------------------------------------------

TEST(Watchdog, TripsWithSnapshotWhenNoCommitProgress)
{
    // A healthy loop whose iterations need several cycles each: a
    // 1-cycle watchdog cannot see a commit in time and must trip with
    // a fully populated machine snapshot.
    SysConfig cfg = configs::ioX();
    cfg.lpsu.watchdogCycles = 1;
    Program prog = assemble(stormSrc);
    XloopsSystem sys(cfg);
    sys.loadProgram(prog);
    try {
        sys.run(prog, ExecMode::Specialized);
        FAIL() << "watchdog never fired";
    } catch (const SimError &error) {
        EXPECT_EQ(error.kind(), SimErrorKind::Watchdog);
        EXPECT_TRUE(error.recoverable());
        EXPECT_EQ(error.exitCode(), 3);
        const MachineSnapshot &snap = error.snapshot();
        EXPECT_EQ(snap.lanes.size(), cfg.lpsu.lanes);
        EXPECT_GT(snap.cycle, 0u);
        // The rendered report names the kind and the per-lane state.
        const std::string what = error.what();
        EXPECT_NE(what.find("watchdog"), std::string::npos);
        EXPECT_NE(what.find("lane"), std::string::npos);
    }
}

TEST(Watchdog, GenerousBudgetNeverTrips)
{
    SysConfig cfg = configs::ioX();
    cfg.lpsu.watchdogCycles = 100'000;
    DualRun run(stormSrc, cfg, ExecMode::Specialized);
    run.expectRegionMatchesGolden("out", 160);
}

TEST(InstLimitValve, DiagnosesRunawayProgramWithSnapshot)
{
    // A program that never halts: the valve must throw a recoverable
    // SimError carrying the GPP state instead of a bare fatal.
    const std::string src =
        "  li r1, 0\n"
        "  li r2, 10\n"
        "spin:\n"
        "  blt r1, r2, spin\n"
        "  halt\n";
    Program prog = assemble(src);
    XloopsSystem sys(configs::ioX());
    sys.loadProgram(prog);
    try {
        sys.run(prog, ExecMode::Specialized, 1000);
        FAIL() << "instruction-limit valve never fired";
    } catch (const SimError &error) {
        EXPECT_EQ(error.kind(), SimErrorKind::InstLimit);
        EXPECT_GE(error.snapshot().gppInsts, 1000u);
        EXPECT_EQ(error.exitCode(), 3);
    }
}

// --------------------------------------------------------------------
// Injection end-to-end: adversarial schedules stay architecturally
// exact, and the same seed reproduces the same run bit-for-bit.
// --------------------------------------------------------------------

TEST(Injection, AdversarialScheduleMatchesSerial)
{
    SysConfig cfg = configs::ioX();
    cfg.lpsu.faults = FaultConfig::uniform(1234, 0.05);
    DualRun run(stormSrc, cfg, ExecMode::Specialized);
    run.expectRegionMatchesGolden("acc", 1);
    run.expectRegionMatchesGolden("out", 160);
}

TEST(Injection, SameSeedReproducesCyclesAndStats)
{
    SysConfig cfg = configs::ioX();
    cfg.lpsu.faults = FaultConfig::uniform(99, 0.08);
    DualRun a(stormSrc, cfg, ExecMode::Specialized);
    DualRun b(stormSrc, cfg, ExecMode::Specialized);
    EXPECT_EQ(a.result.cycles, b.result.cycles);
    for (const Stat stat :
         {Stat::Squashes, Stat::InjectedSquashes, Stat::InjectedJitterCycles,
          Stat::InjectedBroadcastDelays, Stat::Iterations, Stat::LaneInsts}) {
        EXPECT_EQ(a.sys.lpsuModel().stats().get(stat),
                  b.sys.lpsuModel().stats().get(stat))
            << statInfo(stat).name;
    }
}

TEST(Injection, InjectedSquashesAreCounted)
{
    // An om loop with no genuine conflicts: every squash observed is
    // an injected one, and the result must still be exact.
    const std::string src =
        "  li r1, 0\n"
        "  li r2, 128\n"
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
        "out: .space 512\n";
    SysConfig cfg = configs::ioX();
    cfg.lpsu.faults = FaultConfig::uniform(5, 0.04);
    DualRun run(src, cfg, ExecMode::Specialized);
    run.expectRegionMatchesGolden("out", 128);
    const StatGroup &ls = run.sys.lpsuModel().stats();
    EXPECT_GT(ls.get(Stat::InjectedSquashes), 0u);
    EXPECT_GE(ls.get(Stat::Squashes), ls.get(Stat::InjectedSquashes));
}

// --------------------------------------------------------------------
// Table II kernels under injection: every kernel, S and A modes,
// three adversarial seeds — the golden checker must always pass.
// --------------------------------------------------------------------

struct InjectedKernelCase
{
    std::string kernel;
    u64 seed;
    ExecMode mode;
};

std::string
injectedCaseName(const testing::TestParamInfo<InjectedKernelCase> &info)
{
    std::string name = info.param.kernel + "_s" +
                       std::to_string(info.param.seed) + "_" +
                       execModeName(info.param.mode);
    for (char &c : name)
        if (c == '-' || c == '.')
            c = '_';
    return name;
}

class InjectedKernels
    : public testing::TestWithParam<InjectedKernelCase>
{
};

TEST_P(InjectedKernels, GoldenCheckerPassesUnderInjection)
{
    const InjectedKernelCase &p = GetParam();
    SysConfig cfg = configs::ioX();
    cfg.lpsu.faults = FaultConfig::uniform(p.seed, 0.03);
    const KernelRun run =
        runKernel(kernelByName(p.kernel), cfg, p.mode);
    EXPECT_TRUE(run.passed) << run.error;
}

std::vector<InjectedKernelCase>
injectedGrid()
{
    std::vector<InjectedKernelCase> grid;
    for (const std::string &name : tableIIKernelNames()) {
        for (u64 seed : {u64{11}, u64{22}, u64{33}})
            grid.push_back({name, seed, ExecMode::Specialized});
        grid.push_back({name, 44, ExecMode::Adaptive});
    }
    return grid;
}

INSTANTIATE_TEST_SUITE_P(TableII, InjectedKernels,
                         testing::ValuesIn(injectedGrid()),
                         injectedCaseName);

} // namespace
} // namespace xloops
