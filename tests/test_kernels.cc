// Integration tests: every registered kernel must validate (against
// the serial golden model and/or its semantic checker) under
// traditional, specialized, and adaptive execution on multiple system
// configurations. Also covers the GP-ISA serialization transform and
// kernel-suite metadata invariants.

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "asm/assembler.h"
#include "common/fault.h"
#include "common/json.h"
#include "common/log.h"
#include "cpu/functional.h"
#include "cpu/threaded.h"
#include "kernels/kernel.h"
#include "system/capsule.h"

namespace xloops {
namespace {

class KernelCorrectness
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(KernelCorrectness, TraditionalOnIo)
{
    const Kernel &k = kernelByName(GetParam());
    const KernelRun run = runKernel(k, configs::io(), ExecMode::Traditional);
    EXPECT_TRUE(run.passed) << run.error;
}

TEST_P(KernelCorrectness, TraditionalGpBinaryOnOoo2)
{
    const Kernel &k = kernelByName(GetParam());
    const KernelRun run =
        runKernel(k, configs::ooo2(), ExecMode::Traditional, true);
    EXPECT_TRUE(run.passed) << run.error;
}

TEST_P(KernelCorrectness, SpecializedOnIoX)
{
    const Kernel &k = kernelByName(GetParam());
    const KernelRun run =
        runKernel(k, configs::ioX(), ExecMode::Specialized);
    EXPECT_TRUE(run.passed) << run.error;
}

TEST_P(KernelCorrectness, SpecializedOnOoo4X)
{
    const Kernel &k = kernelByName(GetParam());
    const KernelRun run =
        runKernel(k, configs::ooo4X(), ExecMode::Specialized);
    EXPECT_TRUE(run.passed) << run.error;
}

TEST_P(KernelCorrectness, AdaptiveOnOoo2X)
{
    const Kernel &k = kernelByName(GetParam());
    const KernelRun run =
        runKernel(k, configs::ooo2X(), ExecMode::Adaptive);
    EXPECT_TRUE(run.passed) << run.error;
}

TEST_P(KernelCorrectness, SpecializedOnDseConfigs)
{
    const Kernel &k = kernelByName(GetParam());
    for (const auto &cfg : {configs::ooo4X8(), configs::ooo4X8rm(),
                            configs::ooo4X4t()}) {
        const KernelRun run = runKernel(k, cfg, ExecMode::Specialized);
        EXPECT_TRUE(run.passed) << cfg.name << ": " << run.error;
    }
}

std::vector<std::string>
allKernelNames()
{
    std::vector<std::string> names;
    for (const Kernel &k : kernelRegistry())
        names.push_back(k.name);
    return names;
}

std::string
sanitize(const ::testing::TestParamInfo<std::string> &info)
{
    std::string s = info.param;
    for (auto &c : s)
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return s;
}

INSTANTIATE_TEST_SUITE_P(AllKernels, KernelCorrectness,
                         ::testing::ValuesIn(allKernelNames()), sanitize);

TEST(KernelRegistry, NamesAreUnique)
{
    std::set<std::string> seen;
    for (const Kernel &k : kernelRegistry())
        EXPECT_TRUE(seen.insert(k.name).second) << k.name;
}

TEST(KernelRegistry, TableIIKernelsAllRegistered)
{
    for (const auto &name : tableIIKernelNames())
        EXPECT_NO_THROW(kernelByName(name)) << name;
    EXPECT_EQ(tableIIKernelNames().size(), 25u);
}

TEST(KernelRegistry, UnknownNameThrows)
{
    EXPECT_THROW(kernelByName("nonesuch"), FatalError);
}

TEST(GpIsaTransform, RemovesAllXloopsAndXis)
{
    for (const Kernel &k : kernelRegistry()) {
        const std::string gp = serializeToGpIsa(k.source);
        EXPECT_EQ(gp.find("xloop."), std::string::npos) << k.name;
        EXPECT_EQ(gp.find(".xi"), std::string::npos) << k.name;
        EXPECT_NO_THROW(assemble(gp)) << k.name;
    }
}

TEST(GpIsaTransform, DynInstRatioNearOne)
{
    // Paper Table II: the XLOOPS binary executes about the same
    // number of dynamic instructions as the GP binary (X/G around
    // 0.9-1.1; xloop saves the addi of the increment-compare pair).
    for (const auto &name : tableIIKernelNames()) {
        const Kernel &k = kernelByName(name);
        const KernelRun xl =
            runKernel(k, configs::io(), ExecMode::Traditional, false);
        const KernelRun gp =
            runKernel(k, configs::io(), ExecMode::Traditional, true);
        ASSERT_TRUE(xl.passed) << name << ": " << xl.error;
        ASSERT_TRUE(gp.passed) << name << ": " << gp.error;
        const double ratio = static_cast<double>(xl.xlDynInsts) /
                             static_cast<double>(gp.xlDynInsts);
        EXPECT_GT(ratio, 0.70) << name;
        EXPECT_LT(ratio, 1.10) << name;
    }
}

// --------------------------------------------------------------------
// Kernel images: one immutable image per (registry kernel, binary)
// --------------------------------------------------------------------

TEST(KernelImages, EqualAFreshAssemblyAndGoldenRun)
{
    for (const Kernel &k : kernelRegistry()) {
        for (const bool gp : {false, true}) {
            SCOPED_TRACE(k.name + (gp ? " (GP-ISA)" : ""));
            const KernelImage &image = kernelImage(k, gp);
            const Program fresh =
                assemble(gp ? serializeToGpIsa(k.source) : k.source);
            EXPECT_EQ(image.program.text, fresh.text);
            EXPECT_EQ(image.program.symbols, fresh.symbols);
            ASSERT_EQ(image.program.data.size(), fresh.data.size());
            for (size_t c = 0; c < fresh.data.size(); c++) {
                EXPECT_EQ(image.program.data[c].base, fresh.data[c].base);
                EXPECT_EQ(image.program.data[c].bytes,
                          fresh.data[c].bytes);
            }

            MainMemory golden;
            fresh.loadInto(golden);
            if (k.setup)
                k.setup(golden, fresh);
            EXPECT_EQ(image.goldenInsts,
                      ThreadedExecutor(golden).run(fresh).dynInsts);
            ASSERT_EQ(image.goldenOutputs.size(), k.outputs.size());
            for (size_t r = 0; r < k.outputs.size(); r++) {
                const auto &[symbol, words] = k.outputs[r];
                const Addr base = fresh.symbol(symbol);
                std::vector<u32> want(words);
                for (unsigned i = 0; i < words; i++)
                    want[i] = golden.readWord(base + 4 * i);
                EXPECT_EQ(image.goldenOutputs[r], want) << symbol;
            }
        }
    }
}

TEST(KernelImages, RunsOfOneBinaryShareOneProgram)
{
    // A capsule context keeps a copy of the program a run ran, and
    // copies share the predecoded image: equal serials mean both runs
    // ran the one Program of the image.
    const Kernel &k = kernelByName("war-uc");
    std::vector<u64> serials;
    for (const ExecMode mode :
         {ExecMode::Traditional, ExecMode::Specialized}) {
        CapsuleContext ctx;
        RunOptions ropts;
        ropts.capsule = &ctx;
        RunHooks hooks;
        hooks.runOptions = &ropts;
        const KernelRun run = runKernel(k, configs::ioX(), mode, false,
                                        hooks);
        ASSERT_TRUE(run.passed) << run.error;
        ASSERT_TRUE(ctx.valid);
        serials.push_back(ctx.program.decoded().serial());
    }
    EXPECT_EQ(serials[0], serials[1]);
    EXPECT_EQ(serials[0], kernelImage(k).program.decoded().serial());
    // The GP-ISA twin is an image of its own.
    EXPECT_NE(serials[0], kernelImage(k, true).program.decoded().serial());
}

TEST(KernelImages, FlippedOutputWordNamesTheMismatch)
{
    const Kernel &k = kernelByName("rgb2cmyk-uc");
    const KernelImage &image = kernelImage(k);
    XloopsSystem sys(configs::io());
    sys.loadProgram(image.program);
    k.setup(sys.memory(), image.program);
    sys.run(image.program, ExecMode::Traditional);
    ASSERT_EQ(checkAgainstGolden(k, image, sys.memory()), "");

    const Addr at = image.program.symbol("mdst") + 4 * 5;
    const u32 want = sys.memory().readWord(at);
    sys.memory().writeWord(at, want ^ 1);
    EXPECT_EQ(checkAgainstGolden(k, image, sys.memory()),
              strf("rgb2cmyk-uc: mdst[5] = ", want ^ 1,
                   ", serial = ", want));
}

TEST(KernelImages, KernelOutsideTheRegistryPanics)
{
    const Kernel copy = kernelByName("war-uc");
    EXPECT_THROW(kernelImage(copy), PanicError);
    EXPECT_THROW(runKernel(copy, configs::io(), ExecMode::Traditional),
                 PanicError);
}

// --------------------------------------------------------------------
// Threaded-executor whole-kernel equivalence sweep
// --------------------------------------------------------------------

// The exact serialization a functional StatGroup gets inside an
// "xloops-stats-1" document (StatGroup::writeJson wrapped in an
// object), so "byte-identical stats section" is literal.
std::string
statsSection(StatGroup &stats)
{
    std::ostringstream os;
    JsonWriter w(os, /*pretty=*/true);
    w.beginObject();
    stats.writeJson(w);
    w.endObject();
    return os.str();
}

class ThreadedEquivalence
    : public ::testing::TestWithParam<std::string>
{
};

// Every Table II kernel, legacy switch vs. threaded dispatch, on
// identical memory images: final architectural state and the
// functional stats section must be byte-identical.
TEST_P(ThreadedEquivalence, MatchesLegacyExecutorBitForBit)
{
    const Kernel &k = kernelByName(GetParam());
    for (const bool gpBinary : {false, true}) {
        const Program prog = assemble(
            gpBinary ? serializeToGpIsa(k.source) : k.source);

        MainMemory legacyMem;
        MainMemory threadedMem;
        for (MainMemory *m : {&legacyMem, &threadedMem}) {
            prog.loadInto(*m);
            if (k.setup)
                k.setup(*m, prog);
        }

        FunctionalExecutor legacy(legacyMem);
        ThreadedExecutor threaded(threadedMem);
        const FuncResult lr = legacy.run(prog);
        const FuncResult tr = threaded.run(prog);

        EXPECT_EQ(lr.dynInsts, tr.dynInsts) << k.name;
        EXPECT_EQ(lr.halted, tr.halted) << k.name;
        for (unsigned r = 0; r < numArchRegs; r++) {
            EXPECT_EQ(legacy.regFile().get(static_cast<RegId>(r)),
                      threaded.regFile().get(static_cast<RegId>(r)))
                << k.name << " r" << r;
        }
        EXPECT_EQ(legacyMem.digest(), threadedMem.digest()) << k.name;
        EXPECT_EQ(statsSection(legacy.stats()),
                  statsSection(threaded.stats()))
            << k.name;
    }
}

// The timing-model paths (runKernel validates against the threaded
// golden model now): a lockstep pass under timing-fault injection must
// still validate every ordered kernel — the threaded golden image is
// what the end-of-run checkers compare against.
TEST(ThreadedGolden, LockstepUnderFaultInjectionStillValidates)
{
    RunOptions opts;
    opts.lockstep = true;
    RunHooks hooks;
    hooks.runOptions = &opts;
    SysConfig cfg = configs::ioX();
    cfg.lpsu.faults = FaultConfig::uniform(/*seed=*/7, /*rate=*/0.05);
    for (const char *name : {"adpcm-or", "dynprog-om", "mm-orm"}) {
        const KernelRun run = runKernel(kernelByName(name), cfg,
                                        ExecMode::Specialized, false,
                                        hooks);
        EXPECT_TRUE(run.passed) << name << ": " << run.error;
    }
}

INSTANTIATE_TEST_SUITE_P(TableII, ThreadedEquivalence,
                         ::testing::ValuesIn(tableIIKernelNames()),
                         sanitize);

TEST(KernelSpeedups, UcKernelsGainOnInOrderHost)
{
    // Paper: specialized execution always benefits the in-order
    // processor; uc-dominated kernels see the largest gains.
    for (const std::string name :
         {"rgb2cmyk-uc", "sgemm-uc", "ssearch-uc", "viterbi-uc"}) {
        const Kernel &k = kernelByName(name);
        const KernelRun gp =
            runKernel(k, configs::io(), ExecMode::Traditional, true);
        const KernelRun sp =
            runKernel(k, configs::ioX(), ExecMode::Specialized);
        ASSERT_TRUE(sp.passed) << name << ": " << sp.error;
        const double speedup = static_cast<double>(gp.result.cycles) /
                               static_cast<double>(sp.result.cycles);
        EXPECT_GT(speedup, 1.5) << name << " speedup " << speedup;
    }
}

TEST(KernelSpeedups, KsackSquashesAreDataDependent)
{
    // Paper Section IV-C: small weights conflict within the lane
    // window, large weights do not.
    auto squashesOf = [](const std::string &name) {
        const Kernel &k = kernelByName(name);
        const Program prog = assemble(k.source);
        XloopsSystem sys(configs::ioX());
        sys.loadProgram(prog);
        k.setup(sys.memory(), prog);
        sys.run(prog, ExecMode::Specialized);
        return sys.lpsuModel().stats().get(Stat::Squashes);
    };
    const u64 sm = squashesOf("ksack-sm-om");
    const u64 lg = squashesOf("ksack-lg-om");
    EXPECT_GT(sm, lg);
}

TEST(KernelSpeedups, HandScheduledOrVariantsAreFaster)
{
    for (const auto &[base, opt] :
         std::vector<std::pair<std::string, std::string>>{
             {"adpcm-or", "adpcm-or-opt"},
             {"dither-or", "dither-or-opt"},
             {"sha-or", "sha-or-opt"}}) {
        const KernelRun b = runKernel(kernelByName(base), configs::ioX(),
                                      ExecMode::Specialized);
        const KernelRun o = runKernel(kernelByName(opt), configs::ioX(),
                                      ExecMode::Specialized);
        ASSERT_TRUE(b.passed) << base << ": " << b.error;
        ASSERT_TRUE(o.passed) << opt << ": " << o.error;
        EXPECT_LT(o.result.cycles, b.result.cycles) << opt;
    }
}

} // namespace
} // namespace xloops
