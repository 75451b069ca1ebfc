// Differential lockstep verification tests: kernel sweeps across
// execution modes and fault seeds asserting shadow/timing equivalence
// (or a well-formed Divergence for kernels whose patterns legitimately
// leave serial semantics), divergence payload structure, the seeded
// architectural-corruption end-to-end capsule demo, and replay.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "asm/assembler.h"
#include "common/fault.h"
#include "common/json.h"
#include "common/sim_error.h"
#include "kernels/kernel.h"
#include "system/capsule.h"
#include "system/lockstep.h"
#include "system/system.h"

namespace xloops {
namespace {

RunOptions
lockstepOpts()
{
    RunOptions opts;
    opts.lockstep = true;
    return opts;
}

KernelRun
runLockstep(const std::string &kernel, const SysConfig &cfg, ExecMode mode)
{
    const RunOptions opts = lockstepOpts();
    RunHooks hooks;
    hooks.runOptions = &opts;
    return runKernel(kernelByName(kernel), cfg, mode, false, hooks);
}

// --------------------------------------------------------------------
// Lockstep equivalence sweeps
// --------------------------------------------------------------------

// Serial-equivalent kernels (one per pattern family): lockstep must
// pass in every execution mode on both an in-order and an OoO host.
const char *const serialEquivalentKernels[] = {
    "rgb2cmyk-uc", "sgemm-uc", "adpcm-or", "kmeans-or",
    "dynprog-om",  "mm-orm",   "hsort-ua",
};

TEST(Lockstep, SerialEquivalentKernelsAllModes)
{
    for (const char *name : serialEquivalentKernels) {
        for (const ExecMode mode :
             {ExecMode::Traditional, ExecMode::Specialized,
              ExecMode::Adaptive}) {
            const KernelRun run = runLockstep(name, configs::ioX(), mode);
            EXPECT_TRUE(run.passed)
                << name << " mode " << execModeName(mode) << ": "
                << run.error;
        }
    }
}

TEST(Lockstep, SerialEquivalentKernelsOooHost)
{
    for (const char *name : {"viterbi-uc", "sha-or", "stencil-om"}) {
        const KernelRun run =
            runLockstep(name, configs::ooo2X(), ExecMode::Specialized);
        EXPECT_TRUE(run.passed) << name << ": " << run.error;
    }
}

// Timing-only fault injection shakes the schedule but never the
// architecture: ordered-pattern kernels must stay lockstep-equivalent
// under every seed (the injector's core contract).
TEST(Lockstep, TimingFaultsPreserveEquivalence)
{
    for (const u64 seed : {3u, 5u, 9u}) {
        SysConfig cfg = configs::ioX();
        cfg.lpsu.faults = FaultConfig::uniform(seed, 0.05);
        for (const char *name : {"adpcm-or", "dynprog-om", "mm-orm"}) {
            const KernelRun run =
                runLockstep(name, cfg, ExecMode::Specialized);
            EXPECT_TRUE(run.passed)
                << name << " seed " << seed << ": " << run.error;
        }
    }
}

// Unordered worklist kernels (uc with dynamic-bound appends) may
// legitimately produce valid non-serial-equivalent schedules: lockstep
// either passes or raises a *well-formed* Divergence — never anything
// else.
TEST(Lockstep, WorklistKernelsCleanOrWellFormedDivergence)
{
    for (const char *name : {"bfs-uc-db", "qsort-uc-db"}) {
        try {
            const KernelRun run =
                runLockstep(name, configs::ioX(), ExecMode::Specialized);
            EXPECT_TRUE(run.passed) << name << ": " << run.error;
        } catch (const DivergenceError &e) {
            const DivergenceInfo &d = e.divergence();
            EXPECT_EQ(e.kind(), SimErrorKind::Divergence);
            EXPECT_EQ(e.exitCode(), 5);
            EXPECT_FALSE(d.site.empty());
            EXPECT_NE(d.pc, 0u);
            EXPECT_TRUE(d.regMismatch || d.memMismatch);
            EXPECT_TRUE(d.sameAs(d));
        }
    }
}

// --------------------------------------------------------------------
// Divergence payload
// --------------------------------------------------------------------

TEST(Divergence, SameAsComparesIdentityNotInstIndex)
{
    DivergenceInfo a;
    a.site = "xloop-exit";
    a.pc = 0x1040;
    a.instIndex = 100;
    a.iteration = 7;
    a.regMismatch = true;
    a.reg = 3;
    a.mainValue = 1;
    a.shadowValue = 2;

    DivergenceInfo b = a;
    b.instIndex = 50;  // detection point may differ between runs
    EXPECT_TRUE(a.sameAs(b));

    b = a;
    b.reg = 4;
    EXPECT_FALSE(a.sameAs(b));
    b = a;
    b.site = "halt";
    EXPECT_FALSE(a.sameAs(b));
    b = a;
    b.iteration = 8;
    EXPECT_FALSE(a.sameAs(b));
}

// A lockstep run actually compares: the checker is not a no-op.
TEST(Lockstep, CheckerComparesEveryCommit)
{
    const Program prog = assemble(
        "  li r1, 0\n  li r2, 16\nbody:\n"
        "  addi r3, r1, 5\n  xloop.uc r1, r2, body\n  halt\n");
    XloopsSystem sys(configs::ioX());
    sys.loadProgram(prog);
    const SysResult res =
        sys.run(prog, ExecMode::Specialized, 500'000'000, lockstepOpts());
    EXPECT_GT(res.gppInsts, 0u);
}

// An architecturally corrupted hand-back is caught *at the loop*, not
// by the end-of-run checker: the corrupted register is named.
TEST(Lockstep, ArchCorruptionRaisesDivergenceAtLoopExit)
{
    SysConfig cfg = configs::ioX();
    cfg.lpsu.faults.seed = 1;
    cfg.lpsu.faults.archCorruptRate = 1.0;
    try {
        runLockstep("kmeans-or", cfg, ExecMode::Specialized);
        FAIL() << "corrupted hand-back escaped the lockstep checker";
    } catch (const DivergenceError &e) {
        const DivergenceInfo &d = e.divergence();
        EXPECT_EQ(d.site, "xloop-exit");
        EXPECT_TRUE(d.regMismatch);
        EXPECT_NE(d.reg, 0);
        EXPECT_NE(d.mainValue, d.shadowValue);
        EXPECT_GE(d.iteration, 0);
    }
}

// Without lockstep the same corrupted run must still be caught by the
// end-of-run golden checker OR surface as a wrong answer — but with
// lockstep, detection happens mid-run with a machine snapshot.
TEST(Lockstep, CorruptionDetectionIsMidRun)
{
    SysConfig cfg = configs::ioX();
    cfg.lpsu.faults.seed = 1;
    cfg.lpsu.faults.archCorruptRate = 1.0;
    try {
        runLockstep("kmeans-or", cfg, ExecMode::Specialized);
        FAIL() << "expected DivergenceError";
    } catch (const DivergenceError &e) {
        EXPECT_GT(e.snapshot().gppInsts, 0u);
        EXPECT_FALSE(e.snapshot().context.empty());
    }
}

// --------------------------------------------------------------------
// End-to-end: divergence capsule -> replay reproduces identically
// --------------------------------------------------------------------

TEST(CapsuleE2E, SeededCorruptionCapsuleReplaysIdentically)
{
    const std::string path = "test_differential_capsule.json";

    RunSpec spec;
    spec.kernel = "kmeans-or";
    spec.lockstep = true;
    spec.injectSeed = 1;
    spec.injectArchRate = 1.0;

    RunOptions opts = lockstepOpts();
    opts.checkpointEvery = 50;  // keep one in memory for the capsule
    CapsuleContext ctx;
    opts.capsule = &ctx;
    RunHooks hooks;
    hooks.runOptions = &opts;

    DivergenceInfo recorded;
    try {
        runKernel(kernelByName(spec.kernel), spec.sysConfig(),
                  ExecMode::Specialized, false, hooks);
        FAIL() << "expected DivergenceError";
    } catch (const DivergenceError &e) {
        recorded = e.divergence();
        ASSERT_TRUE(ctx.valid);
        EXPECT_FALSE(ctx.lastCheckpoint.empty());
        EXPECT_GT(ctx.lastCheckpointInst, 0u);
        writeCapsule(path, spec, ctx, e);
    }

    // The capsule is complete and self-describing.
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::ostringstream buf;
    buf << in.rdbuf();
    const JsonValue v = jsonParse(buf.str());
    EXPECT_EQ(v.at("schema").asString(), "xloops-capsule-1");
    EXPECT_EQ(v.at("config").asString(), "io+x");
    EXPECT_EQ(v.at("error").at("kind").asString(), "divergence");
    EXPECT_EQ(v.at("error").at("exit_code").asU64(), 5u);
    ASSERT_TRUE(v.at("error").has("divergence"));
    EXPECT_TRUE(v.has("program"));
    EXPECT_TRUE(v.has("initial_mem"));
    EXPECT_TRUE(v.has("checkpoint"));

    // Replay re-executes, verifies the identical first divergence
    // (same site, loop pc, iteration, register), re-verifies from the
    // embedded checkpoint, and bisects. Exit 0 = fully reproduced.
    EXPECT_EQ(replayCapsule(path), 0);

    // The recorded divergence names the corrupted register precisely.
    EXPECT_EQ(recorded.site, "xloop-exit");
    EXPECT_TRUE(recorded.regMismatch);

    std::remove(path.c_str());
}

// A tampered capsule (different divergence identity) must NOT replay
// as identical.
TEST(CapsuleE2E, TamperedCapsuleFailsReplay)
{
    const std::string path = "test_differential_tampered.json";

    RunSpec spec;
    spec.kernel = "kmeans-or";
    spec.lockstep = true;
    spec.injectSeed = 1;
    spec.injectArchRate = 1.0;

    RunOptions opts = lockstepOpts();
    CapsuleContext ctx;
    opts.capsule = &ctx;
    RunHooks hooks;
    hooks.runOptions = &opts;
    try {
        runKernel(kernelByName(spec.kernel), spec.sysConfig(),
                  ExecMode::Specialized, false, hooks);
        FAIL() << "expected DivergenceError";
    } catch (const DivergenceError &e) {
        RunSpec tampered = spec;
        tampered.injectSeed = 999;  // wrong seed: different corruption
        writeCapsule(path, tampered, ctx, e);
    }
    EXPECT_NE(replayCapsule(path), 0);
    std::remove(path.c_str());
}

} // namespace
} // namespace xloops
