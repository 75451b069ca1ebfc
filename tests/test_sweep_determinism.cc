// Property tests for the parallel sweep harness: the merged
// "xloops-sweep-1" report must be byte-identical for --jobs 1, 4,
// and 8, across root seeds and under fault injection, and every
// cell's embedded stats must match what a serial single-System run
// of the same cell produces. This is the contract that lets every
// evaluation harness parallelize without changing a single reported
// number. Cells share each binary's kernel image, so the first use of
// one from many threads at once is tested here too (CI runs this
// binary under TSan).

#include <gtest/gtest.h>

#include <latch>
#include <sstream>
#include <thread>

#include "common/fault.h"
#include "common/json.h"
#include "common/loop_profile.h"
#include "common/pool.h"
#include "kernels/kernel.h"
#include "system/report.h"
#include "system/sweep.h"

namespace xloops {
namespace {

std::vector<SweepCell>
smallMatrix()
{
    // A kernel per dependence pattern x {T, S} on io+x, plus one
    // adaptive cell: small enough to run repeatedly, wide enough to
    // exercise the GPP, LPSU, and adaptive controller.
    std::vector<SweepCell> cells =
        crossProduct({"rgb2cmyk-uc", "kmeans-or", "dynprog-om"},
                     {configs::ioX()},
                     {ExecMode::Traditional, ExecMode::Specialized});
    cells.push_back(
        {"rgb2cmyk-uc", configs::ioX(), ExecMode::Adaptive, false});
    return cells;
}

std::string
sweepText(const std::vector<SweepCell> &cells, unsigned jobs,
          u64 injectSeed, double injectRate)
{
    SweepOptions opts;
    opts.jobs = jobs;
    opts.injectSeed = injectSeed;
    opts.injectRate = injectRate;
    return sweepJsonText(cells, runSweep(cells, opts), opts);
}

TEST(SweepDeterminism, ReportIsByteIdenticalAcrossJobCounts)
{
    const std::vector<SweepCell> cells = smallMatrix();
    const std::string serial = sweepText(cells, 1, 0, 0.0);
    EXPECT_TRUE(jsonValidate(serial));
    EXPECT_EQ(serial, sweepText(cells, 4, 0, 0.0));
    EXPECT_EQ(serial, sweepText(cells, 8, 0, 0.0));
}

TEST(SweepDeterminism, ByteIdenticalUnderFaultInjectionAcrossSeeds)
{
    const std::vector<SweepCell> cells = smallMatrix();
    for (const u64 seed : {u64{3}, u64{9}}) {
        SCOPED_TRACE(seed);
        const std::string serial = sweepText(cells, 1, seed, 0.05);
        EXPECT_TRUE(jsonValidate(serial));
        EXPECT_EQ(serial, sweepText(cells, 4, seed, 0.05));
        EXPECT_EQ(serial, sweepText(cells, 8, seed, 0.05));
    }
    // Different seeds produce different fault schedules (the reports
    // must differ, or injection silently did nothing).
    EXPECT_NE(sweepText(cells, 4, 3, 0.05), sweepText(cells, 4, 9, 0.05));
}

TEST(SweepDeterminism, CellStatsMatchASerialSystemRun)
{
    // Run one injected cell through the parallel harness, then redo
    // exactly that cell with a directly-constructed serial system:
    // the embedded "xloops-stats-1" documents must be byte-identical.
    const std::vector<SweepCell> cells = smallMatrix();
    SweepOptions opts;
    opts.jobs = 8;
    opts.injectSeed = 7;
    opts.injectRate = 0.05;
    const std::vector<SweepCellResult> results = runSweep(cells, opts);
    ASSERT_EQ(results.size(), cells.size());

    for (size_t i = 0; i < cells.size(); i++) {
        SCOPED_TRACE(cells[i].kernel + "/" +
                     execModeName(cells[i].mode));
        ASSERT_TRUE(results[i].passed) << results[i].error;

        SysConfig cfg = cells[i].config;
        cfg.lpsu.faults = FaultConfig::uniform(
            taskSeed(opts.injectSeed, i), opts.injectRate);
        LoopProfiler profiler;
        RunHooks hooks;
        hooks.profiler = &profiler;
        const KernelRun serial =
            runKernel(kernelByName(cells[i].kernel), cfg, cells[i].mode,
                      cells[i].gpBinary, hooks);
        ASSERT_TRUE(serial.passed) << serial.error;
        EXPECT_EQ(serial.result.cycles, results[i].cycles);

        std::ostringstream ss;
        writeStatsJson(ss, cfg.name, execModeName(cells[i].mode),
                       cells[i].kernel, serial.result, profiler,
                       nullptr);
        EXPECT_EQ(ss.str(), results[i].statsJson);
    }
}

TEST(SweepDeterminism, FailedCellsAreResultsNotAborts)
{
    // A cell diagnosed with a SimError (here: an absurdly small
    // instruction valve) must come back as a failed cell while the
    // other cells complete normally — and identically across job
    // counts.
    std::vector<SweepCell> cells = smallMatrix();
    SweepOptions opts;
    opts.maxInsts = 50;

    opts.jobs = 1;
    const std::vector<SweepCellResult> serial = runSweep(cells, opts);
    opts.jobs = 8;
    const std::vector<SweepCellResult> parallel = runSweep(cells, opts);

    ASSERT_EQ(serial.size(), parallel.size());
    size_t failed = 0;
    for (size_t i = 0; i < serial.size(); i++) {
        EXPECT_EQ(serial[i].passed, parallel[i].passed);
        EXPECT_EQ(serial[i].simError, parallel[i].simError);
        EXPECT_EQ(serial[i].error, parallel[i].error);
        failed += serial[i].passed ? 0 : 1;
    }
    EXPECT_GT(failed, 0u);  // the tiny valve must have tripped
    EXPECT_EQ(sweepJsonText(cells, serial, opts),
              sweepJsonText(cells, parallel, opts));
}

TEST(SweepDeterminism, ConcurrentFirstUseOfAKernelImage)
{
    // No other test in this binary runs symm-or, so the eight threads,
    // released together, race on the first build of its image: one
    // builds it, the others wait for it, and all run on it.
    const Kernel &k = kernelByName("symm-or");
    constexpr unsigned threads = 8;
    std::latch start(threads);
    std::vector<KernelRun> runs(threads);
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; t++) {
        pool.emplace_back([&, t] {
            start.arrive_and_wait();
            try {
                runs[t] =
                    runKernel(k, configs::ioX(), ExecMode::Specialized);
            } catch (const std::exception &error) {
                runs[t].error = error.what();
            }
        });
    }
    for (std::thread &th : pool)
        th.join();
    for (unsigned t = 0; t < threads; t++) {
        SCOPED_TRACE(t);
        EXPECT_TRUE(runs[t].passed) << runs[t].error;
        EXPECT_EQ(runs[t].result.cycles, runs[0].result.cycles);
        EXPECT_EQ(runs[t].result.laneInsts, runs[0].result.laneInsts);
        EXPECT_EQ(runs[t].xlDynInsts, runs[0].xlDynInsts);
    }
    EXPECT_EQ(runs[0].xlDynInsts, kernelImage(k).goldenInsts);
}

TEST(SweepDeterminism, CrossProductSkipsLpsulessSpecializedCells)
{
    const std::vector<SweepCell> cells = crossProduct(
        {"rgb2cmyk-uc"}, {configs::io(), configs::ioX()},
        {ExecMode::Traditional, ExecMode::Specialized});
    // io gets T only; io+x gets T and S.
    ASSERT_EQ(cells.size(), 3u);
    EXPECT_FALSE(cells[0].config.hasLpsu);
    EXPECT_EQ(cells[0].mode, ExecMode::Traditional);
}

} // namespace
} // namespace xloops
