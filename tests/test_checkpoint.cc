// Deterministic checkpoint/restore tests: the "xloops-ckpt-1" schema,
// the in-memory checkpoint sink, restore-and-run-to-completion
// equivalence with the uninterrupted run, lockstep composition, and
// the restore-time validation errors (schema / config / mode /
// program-image mismatches).

#include <gtest/gtest.h>

#include <regex>
#include <string>
#include <utility>
#include <vector>

#include "asm/assembler.h"
#include "common/json.h"
#include "common/log.h"
#include "kernels/kernel.h"
#include "system/system.h"

namespace xloops {
namespace {

/** Load a kernel's binary and inputs into @p sys as runKernel does
 *  (a fresh assembly equals its kernel image; see test_kernels). */
Program
prepare(XloopsSystem &sys, const std::string &kernelName)
{
    const Kernel &k = kernelByName(kernelName);
    const Program prog = assemble(k.source);
    sys.loadProgram(prog);
    if (k.setup)
        k.setup(sys.memory(), prog);
    return prog;
}

/** Run @p kernelName start-to-finish collecting every checkpoint the
 *  sink sees; returns (result, final memory digest, checkpoints). */
struct SinkRun
{
    SysResult result;
    u64 memDigest = 0;
    std::vector<std::pair<u64, std::string>> ckpts;
};

SinkRun
runWithSink(const std::string &kernelName, u64 every, bool lockstep,
            ExecMode mode = ExecMode::Specialized)
{
    SinkRun r;
    XloopsSystem sys(configs::ioX());
    const Program prog = prepare(sys, kernelName);
    RunOptions opts;
    opts.lockstep = lockstep;
    opts.checkpointEvery = every;
    opts.checkpointSink = [&](u64 inst, const std::string &json) {
        r.ckpts.emplace_back(inst, json);
    };
    r.result = sys.run(prog, mode, 500'000'000, opts);
    r.memDigest = sys.memory().digest();
    return r;
}

TEST(Checkpoint, SinkFiresAtTheConfiguredInterval)
{
    const SinkRun r = runWithSink("kmeans-or", 25, false);
    ASSERT_FALSE(r.ckpts.empty());
    u64 prev = 0;
    for (const auto &[inst, json] : r.ckpts) {
        EXPECT_GT(inst, prev);
        EXPECT_FALSE(json.empty());
        prev = inst;
    }
}

TEST(Checkpoint, SchemaIsVersionedAndSelfDescribing)
{
    const SinkRun r = runWithSink("kmeans-or", 50, false);
    ASSERT_FALSE(r.ckpts.empty());
    const JsonValue v = jsonParse(r.ckpts.front().second);
    EXPECT_EQ(v.at("schema").asString(), "xloops-ckpt-1");
    EXPECT_EQ(v.at("config").asString(), "io+x");
    EXPECT_EQ(v.at("mode").asString(), "S");
    EXPECT_EQ(v.at("inst_count").asU64(), r.ckpts.front().first);
    for (const char *key : {"program_hash", "pc", "regs", "result",
                            "mem", "gpp", "lpsu", "apt", "fallback_pcs",
                            "storm_cooldowns"})
        EXPECT_TRUE(v.has(key)) << "missing key " << key;
    // Exact-value fields travel as strings, never through a double.
    EXPECT_EQ(v.at("program_hash").asString().substr(0, 2), "0x");
}

TEST(Checkpoint, LastCheckpointIsExposedForCapsules)
{
    XloopsSystem sys(configs::ioX());
    const Program prog = prepare(sys, "kmeans-or");
    RunOptions opts;
    opts.checkpointEvery = 50;
    sys.run(prog, ExecMode::Specialized, 500'000'000, opts);
    EXPECT_FALSE(sys.lastCheckpoint().empty());
    EXPECT_GE(sys.lastCheckpointInst(), 50u);
}

// The core determinism contract: restoring a mid-run checkpoint and
// running to completion is indistinguishable from the uninterrupted
// run (counters and the complete memory image).
TEST(Checkpoint, RestoreRunsToIdenticalCompletion)
{
    const SinkRun full = runWithSink("kmeans-or", 50, false);
    ASSERT_FALSE(full.ckpts.empty());

    for (const auto &[inst, json] : full.ckpts) {
        XloopsSystem sys(configs::ioX());
        const Program prog = prepare(sys, "kmeans-or");
        RunOptions opts;
        opts.restoreText = json;
        const SysResult res =
            sys.run(prog, ExecMode::Specialized, 500'000'000, opts);
        EXPECT_EQ(res.cycles, full.result.cycles) << "from inst " << inst;
        EXPECT_EQ(res.gppInsts, full.result.gppInsts);
        EXPECT_EQ(res.laneInsts, full.result.laneInsts);
        EXPECT_EQ(res.xloopsSpecialized, full.result.xloopsSpecialized);
        EXPECT_EQ(sys.memory().digest(), full.memDigest);
    }
}

// Checkpoints taken with the lockstep shadow attached restore under
// lockstep and still complete cleanly (the shadow re-clones from the
// restored main state).
TEST(Checkpoint, ComposesWithLockstep)
{
    const SinkRun full = runWithSink("kmeans-or", 50, true);
    ASSERT_FALSE(full.ckpts.empty());
    const JsonValue v = jsonParse(full.ckpts.front().second);
    EXPECT_TRUE(v.has("lockstep"));

    XloopsSystem sys(configs::ioX());
    const Program prog = prepare(sys, "kmeans-or");
    RunOptions opts;
    opts.lockstep = true;
    opts.restoreText = full.ckpts.front().second;
    const SysResult res =
        sys.run(prog, ExecMode::Specialized, 500'000'000, opts);
    EXPECT_EQ(res.gppInsts, full.result.gppInsts);
    EXPECT_EQ(sys.memory().digest(), full.memDigest);
}

// A checkpoint taken *without* lockstep may still be restored *into* a
// lockstep run: the shadow resumes from the restored main state.
TEST(Checkpoint, LockstepAttachesOnRestore)
{
    const SinkRun full = runWithSink("kmeans-or", 50, false);
    ASSERT_FALSE(full.ckpts.empty());
    XloopsSystem sys(configs::ioX());
    const Program prog = prepare(sys, "kmeans-or");
    RunOptions opts;
    opts.lockstep = true;
    opts.restoreText = full.ckpts.back().second;
    const SysResult res =
        sys.run(prog, ExecMode::Specialized, 500'000'000, opts);
    EXPECT_EQ(res.gppInsts, full.result.gppInsts);
}

// ---- Restore-time validation ----------------------------------------

std::string
replaced(std::string text, const std::string &from, const std::string &to)
{
    const size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    text.replace(at, from.size(), to);
    return text;
}

struct RestoreFixture
{
    std::string ckpt;

    RestoreFixture()
    {
        ckpt = runWithSink("kmeans-or", 50, false).ckpts.front().second;
    }

    static void restoreInto(const SysConfig &cfg, ExecMode mode,
                            const std::string &kernelName,
                            const std::string &text)
    {
        XloopsSystem sys(cfg);
        const Program prog = prepare(sys, kernelName);
        RunOptions opts;
        opts.restoreText = text;
        sys.run(prog, mode, 500'000'000, opts);
    }
};

TEST(CheckpointValidation, RejectsUnknownSchema)
{
    const RestoreFixture f;
    EXPECT_THROW(RestoreFixture::restoreInto(
                     configs::ioX(), ExecMode::Specialized, "kmeans-or",
                     replaced(f.ckpt, "xloops-ckpt-1", "xloops-ckpt-9")),
                 FatalError);
}

TEST(CheckpointValidation, RejectsConfigMismatch)
{
    const RestoreFixture f;
    EXPECT_THROW(RestoreFixture::restoreInto(configs::ooo2X(),
                                             ExecMode::Specialized,
                                             "kmeans-or", f.ckpt),
                 FatalError);
}

TEST(CheckpointValidation, RejectsModeMismatch)
{
    const RestoreFixture f;
    EXPECT_THROW(RestoreFixture::restoreInto(configs::ioX(),
                                             ExecMode::Traditional,
                                             "kmeans-or", f.ckpt),
                 FatalError);
}

TEST(CheckpointValidation, RejectsAptFifoCursorOutOfRange)
{
    // An adaptive-mode checkpoint whose FIFO cursor points past the
    // 16-entry table, with every entry invalid so the next xloop
    // allocates at the cursor.
    std::string ckpt =
        runWithSink("kmeans-or", 200, false, ExecMode::Adaptive)
            .ckpts.front()
            .second;
    ckpt = std::regex_replace(ckpt, std::regex("\"fifo_next\": [0-9]+"),
                              "\"fifo_next\": 1000000000");
    ckpt = std::regex_replace(ckpt, std::regex("\"valid\": true"),
                              "\"valid\": false");
    try {
        RestoreFixture::restoreInto(configs::ioX(), ExecMode::Adaptive,
                                    "kmeans-or", ckpt);
        FAIL() << "restore accepted an out-of-range fifo_next";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("fifo_next"),
                  std::string::npos)
            << err.what();
    }
}

TEST(CheckpointValidation, RejectsDifferentProgramImage)
{
    const RestoreFixture f;
    EXPECT_THROW(RestoreFixture::restoreInto(configs::ioX(),
                                             ExecMode::Specialized,
                                             "adpcm-or", f.ckpt),
                 FatalError);
}

} // namespace
} // namespace xloops
