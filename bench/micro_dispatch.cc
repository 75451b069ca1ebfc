/**
 * @file
 * Functional-execution dispatch microbenchmark: the per-instruction
 * switch (ExecCore::step via FunctionalExecutor) against the threaded
 * computed-goto interpreter over cached superblocks (cpu/threaded.h),
 * in instructions per second. Both expand the same handler semantics
 * (isa/op_meta.h), so the ratio measures dispatch alone.
 *
 * Measures whole-kernel functional runs (reload + input setup every
 * repetition, identically for both paths) plus a synthetic
 * five-instruction arithmetic loop that retires ~5M instructions per
 * repetition, making per-run setup negligible — that row is the
 * cleanest read of raw dispatch throughput. Writes
 * BENCH_dispatch.json (rows of insts/sec + speedup, plus a geomean
 * summary) via the shared xloops-bench-1 reporter.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "asm/assembler.h"
#include "bench_util.h"
#include "cpu/functional.h"
#include "cpu/threaded.h"
#include "kernels/kernel.h"

namespace {

using namespace xloops;

// ~1M iterations x 5 instructions: long enough that program reload is
// noise, mixed enough (alu + branch) to exercise the dispatch loop
// rather than one handler.
const char *const syntheticLoop = R"(
  addi r1, r0, 0
  lui  r2, 123
loop:
  addi r3, r3, 1
  xor  r4, r3, r1
  add  r5, r5, r4
  addi r1, r1, 1
  blt  r1, r2, loop
  halt
)";

/**
 * Accumulate >= 0.2 s of *execution* time (program reload and input
 * setup run untimed between repetitions — they are identical for both
 * paths and are not dispatch) and return instructions/sec; best of
 * three trials.
 */
double
instsPerSec(const std::function<void()> &prepare,
            const std::function<u64()> &execute)
{
    double best = 0.0;
    for (int trial = 0; trial < 3; trial++) {
        prepare();
        execute();  // warm caches (and the superblock cache)
        u64 insts = 0;
        double elapsed = 0.0;
        do {
            prepare();
            const auto t0 = std::chrono::steady_clock::now();
            insts += execute();
            elapsed += std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
        } while (elapsed < 0.2);
        best = std::max(best, static_cast<double>(insts) / elapsed);
    }
    return best;
}

struct Workload
{
    std::string label;
    Program prog;
    std::function<void(MainMemory &, const Program &)> setup;
};

} // namespace

int
main(int argc, char **argv)
{
    (void)argc;
    (void)argv;

    std::vector<Workload> workloads;
    for (const char *name :
         {"rgb2cmyk-uc", "sgemm-uc", "viterbi-uc", "kmeans-or",
          "dynprog-om"}) {
        const Kernel &k = kernelByName(name);
        workloads.push_back({name, assemble(k.source), k.setup});
    }
    workloads.push_back({"synthetic-loop", assemble(syntheticLoop), {}});

    benchutil::BenchReport report("dispatch");
    std::printf("%-16s %14s %14s %8s\n", "workload", "switch M/s",
                "threaded M/s", "speedup");

    double logSum = 0.0;
    for (const Workload &w : workloads) {
        MainMemory switchMem;
        const double switchRate = instsPerSec(
            [&] {
                w.prog.loadInto(switchMem);
                if (w.setup)
                    w.setup(switchMem, w.prog);
            },
            [&] {
                FunctionalExecutor exec(switchMem);
                return exec.run(w.prog).dynInsts;
            });

        MainMemory threadedMem;
        ThreadedExecutor threaded(threadedMem);
        const double threadedRate = instsPerSec(
            [&] {
                w.prog.loadInto(threadedMem);
                if (w.setup)
                    w.setup(threadedMem, w.prog);
                threaded.regFile() = RegFile{};
            },
            [&] { return threaded.run(w.prog).dynInsts; });

        const double speedup = threadedRate / switchRate;
        logSum += std::log(speedup);
        std::printf("%-16s %14.1f %14.1f %7.2fx\n", w.label.c_str(),
                    switchRate / 1e6, threadedRate / 1e6, speedup);
        report.beginRow(w.label);
        report.metric("switch_insts_per_sec", switchRate);
        report.metric("threaded_insts_per_sec", threadedRate);
        report.metric("speedup", speedup);
    }

    const double geomean =
        std::exp(logSum / static_cast<double>(workloads.size()));
    std::printf("%-16s %37.2fx geomean\n", "summary", geomean);
    report.beginRow("summary");
    report.metric("geomean_speedup", geomean);
    report.write();
    return 0;
}
