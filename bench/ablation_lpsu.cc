/**
 * @file
 * Ablations of the LPSU design choices DESIGN.md calls out, beyond
 * the paper's Figure 9 grid:
 *
 *  1. cross-lane store-load forwarding + value-based violation
 *     filtering (the paper's "more aggressive implementation") on the
 *     squash-dominated om/ua kernels;
 *  2. lane-count sweep 1..8 on a uc kernel (scaling shape);
 *  3. scan-phase cost sensitivity (0/1/4 cycles per scanned
 *     instruction) on a short-trip-count loop nest;
 *  4. LSQ capacity sweep on the LSQ-structural-hazard kernels.
 *
 * All four ablations are one flat cell list run through the parallel
 * sweep harness (`--jobs N`); sections only index into the results.
 */

#include "bench_util.h"

using namespace xloops;
using namespace xloops::benchutil;

int
main(int argc, char **argv)
{
    const unsigned jobs = parseJobs(argc, argv);

    const std::vector<std::string> fwdKernels = {
        "dynprog-om", "ksack-sm-om", "knn-om", "hsort-ua", "rsort-ua",
        "war-om"};
    const std::vector<unsigned> laneCounts = {1, 2, 3, 4, 6, 8};
    const std::vector<unsigned> scanCosts = {0, 1, 4};
    const std::vector<std::string> lsqKernels = {"btree-ua", "war-om"};
    const std::vector<unsigned> lsqSizes = {4, 8, 16, 32};

    std::vector<SweepCell> cells;
    // Section 1: two cells (io+x, io+xf) per forwarding kernel.
    const size_t fwdAt = cells.size();
    for (const std::string &name : fwdKernels) {
        cells.push_back(cell(name, configs::ioX(),
                             ExecMode::Specialized));
        cells.push_back(cell(name, configs::ioXf(),
                             ExecMode::Specialized));
    }
    // Section 2: serial baseline, then the lane sweep.
    const size_t lanesAt = cells.size();
    cells.push_back(gpCell("rgb2cmyk-uc", configs::io()));
    for (const unsigned lanes : laneCounts) {
        SysConfig cfg = configs::ioX();
        cfg.lpsu.lanes = lanes;
        cells.push_back(cell("rgb2cmyk-uc", cfg, ExecMode::Specialized));
    }
    // Section 3: serial baseline, then the scan-cost sweep.
    const size_t scanAt = cells.size();
    cells.push_back(gpCell("war-uc", configs::io()));
    for (const unsigned cost : scanCosts) {
        SysConfig cfg = configs::ioX();
        cfg.lpsu.scanCyclesPerInst = cost;
        cells.push_back(cell("war-uc", cfg, ExecMode::Specialized));
    }
    // Section 4: per kernel, serial baseline then the LSQ sweep.
    const size_t lsqAt = cells.size();
    for (const std::string &name : lsqKernels) {
        cells.push_back(gpCell(name, configs::io()));
        for (const unsigned entries : lsqSizes) {
            SysConfig cfg = configs::ioX();
            cfg.lpsu.lsqLoadEntries = entries;
            cfg.lpsu.lsqStoreEntries = entries;
            cells.push_back(cell(name, cfg, ExecMode::Specialized));
        }
    }

    const std::vector<SweepCellResult> results =
        runBenchSweep(cells, jobs);
    bool ok = true;

    std::printf("Ablation 1: cross-lane forwarding + value-based "
                "violation filtering (io+x vs io+xf)\n\n");
    std::printf("%-14s %10s %9s | %10s %9s %9s %8s\n", "kernel",
                "base cyc", "squashes", "fwd cyc", "squashes",
                "filtered", "speedup");
    for (size_t k = 0; k < fwdKernels.size(); k++) {
        const SweepCellResult &base = results[fwdAt + 2 * k];
        const SweepCellResult &fwd = results[fwdAt + 2 * k + 1];
        ok &= base.passed && fwd.passed;
        std::printf("%-14s %10llu %9llu | %10llu %9llu %9llu %7.2fx\n",
                    fwdKernels[k].c_str(),
                    static_cast<unsigned long long>(base.cycles),
                    static_cast<unsigned long long>(
                        base.stats.get(Stat::Squashes)),
                    static_cast<unsigned long long>(fwd.cycles),
                    static_cast<unsigned long long>(
                        fwd.stats.get(Stat::Squashes)),
                    static_cast<unsigned long long>(
                        fwd.stats.get(Stat::SquashesFiltered)),
                    ratio(base.cycles, fwd.cycles));
    }

    std::printf("\nAblation 2: lane-count sweep, rgb2cmyk-uc "
                "(speedup vs serial GP on io)\n\n  lanes: ");
    const Cell g = toCell(results[lanesAt]);
    for (size_t i = 0; i < laneCounts.size(); i++) {
        const Cell s = toCell(results[lanesAt + 1 + i]);
        ok &= s.passed;
        std::printf("%u=%.2fx  ", laneCounts[i],
                    ratio(g.cycles, s.cycles));
    }

    std::printf("\n\nAblation 3: scan cost sensitivity, war-uc "
                "(inner xloop re-specialized every outer iteration)\n\n"
                "  scan cycles/inst: ");
    const Cell gw = toCell(results[scanAt]);
    for (size_t i = 0; i < scanCosts.size(); i++) {
        const Cell s = toCell(results[scanAt + 1 + i]);
        ok &= s.passed;
        std::printf("%u=%.2fx  ", scanCosts[i],
                    ratio(gw.cycles, s.cycles));
    }

    std::printf("\n\nAblation 4: LSQ capacity sweep, btree-ua and "
                "war-om (speedup vs serial GP on io)\n\n");
    const size_t lsqStride = 1 + lsqSizes.size();
    for (size_t k = 0; k < lsqKernels.size(); k++) {
        const Cell gb = toCell(results[lsqAt + k * lsqStride]);
        std::printf("  %-10s: ", lsqKernels[k].c_str());
        for (size_t i = 0; i < lsqSizes.size(); i++) {
            const Cell s = toCell(results[lsqAt + k * lsqStride + 1 + i]);
            ok &= s.passed;
            std::printf("%u+%u=%.2fx  ", lsqSizes[i], lsqSizes[i],
                        ratio(gb.cycles, s.cycles));
        }
        std::printf("\n");
    }
    std::printf("\nvalidation: %s\n", ok ? "ALL PASSED" : "FAILED");
    return ok ? 0 : 1;
}
