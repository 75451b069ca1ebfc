/**
 * @file
 * xsweep — parallel experiment-matrix driver.
 *
 * Runs the cross product (kernels × configs × modes) across a worker
 * pool, each cell in a fully isolated system, and writes the merged
 * "xloops-sweep-1" report (one embedded "xloops-stats-1" document per
 * cell). The report is byte-identical for every --jobs value; see
 * docs/OBSERVABILITY.md §5 and tests/test_sweep_determinism.cc.
 *
 * Exit codes: 0 all cells validated, 1 user/config error, 6 one or
 * more cells failed validation (or died with a diagnosed SimError —
 * per-cell errors are in the report, the sweep itself never wedges).
 * The failed-cell code is distinct from every xsim code (2 = checker,
 * 3 = diagnosis, 5 = divergence) so a harness can tell "the sweep ran
 * to completion but cells failed" apart from a driver-level death; a
 * "failed cells: N/M" summary on stderr lists the count explicitly.
 */

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/log.h"
#include "common/pool.h"
#include "common/sim_error.h"
#include "kernels/kernel.h"
#include "system/run_spec.h"
#include "system/sweep.h"

using namespace xloops;

int
main(int argc, char **argv)
{
    std::vector<std::string> kernels = {"all"};
    std::vector<std::string> configNames = {"io+x"};
    std::vector<std::string> modeNames = {"S"};
    std::string outPath;
    SweepOptions opts;

    const cli::Command cmd{
        "xsweep",
        "[options]",
        {
            cli::option("--kernels", "<k1,k2|all>",
                        "comma-separated kernel names, or 'all' "
                        "(default) for Table II",
                        kernels),
            cli::option("--configs", "<c1,c2>",
                        "comma-separated configurations (default io+x); "
                        "see xsim -l",
                        configNames),
            cli::option("--modes", "<T,S,A>",
                        "execution modes to cross (default S)", modeNames),
            cli::option("--jobs", "<n>",
                        "worker threads (default: XLOOPS_JOBS or "
                        "hardware concurrency)",
                        opts.jobs),
            cli::option("--inject-seed", "<n>",
                        "root fault seed; each cell derives its own seed "
                        "from it",
                        opts.injectSeed),
            cli::option("--inject-rate", "<p>",
                        strf("per-opportunity fault probability (default ",
                             defaultInjectRate, " with a seed)"),
                        opts.injectRate),
            cli::option("--max-insts", "<n>", "per-cell instruction valve",
                        opts.maxInsts),
            cli::option("--deadline-ms", "<n>",
                        "wall-clock budget for the whole sweep (0 = "
                        "none); on expiry remaining cells are skipped and "
                        "the sweep exits 6",
                        opts.deadlineMs),
            cli::option("--out", "<file>",
                        "write the xloops-sweep-1 report here", outPath),
        },
        "exit codes: 0 all validated, 1 user error, 6 failed/skipped "
        "cells\n"};

    try {
        const cli::Parsed given = cli::parseCommandLine(cmd, argc, argv);
        if (opts.injectSeed != 0 && !given.has("--inject-rate"))
            opts.injectRate = defaultInjectRate;

        if (kernels == std::vector<std::string>{"all"}) {
            kernels = tableIIKernelNames();
        } else {
            for (const std::string &k : kernels)
                kernelByName(k);  // fail fast on typos
        }
        std::vector<SysConfig> cfgs;
        for (const std::string &c : configNames)
            cfgs.push_back(configs::byName(c));
        std::vector<ExecMode> modes;
        for (const std::string &m : modeNames)
            modes.push_back(execModeByName(m));

        const std::vector<SweepCell> cells =
            crossProduct(kernels, cfgs, modes);
        if (cells.empty())
            fatal("cross product is empty (S/A modes need +x configs)");

        const unsigned jobs = opts.jobs ? opts.jobs : defaultJobs();
        std::printf("sweep: %zu cells (%zu kernels x %zu configs x %zu "
                    "modes), %u jobs\n",
                    cells.size(), kernels.size(), cfgs.size(),
                    modes.size(), jobs);

        const std::vector<SweepCellResult> results =
            runSweep(cells, opts);

        size_t passed = 0;
        for (size_t i = 0; i < results.size(); i++) {
            if (results[i].passed) {
                passed++;
            } else {
                std::fprintf(stderr, "FAILED %s %s %s: %s\n",
                             cells[i].kernel.c_str(),
                             cells[i].config.name.c_str(),
                             execModeName(cells[i].mode),
                             results[i].error.c_str());
            }
        }
        std::printf("passed: %zu/%zu\n", passed, results.size());
        if (passed != results.size())
            std::fprintf(stderr, "failed cells: %zu/%zu\n",
                         results.size() - passed, results.size());

        if (!outPath.empty()) {
            std::ofstream out(outPath);
            if (!out)
                fatal("cannot write " + outPath);
            writeSweepJson(out, cells, results, opts);
            std::printf("report: %s\n", outPath.c_str());
        }
        // Failed cells get their own exit code, distinct from every
        // xsim code: harnesses must be able to tell "the sweep
        // completed and some cells failed" from a driver death.
        return passed == results.size() ? 0 : 6;
    } catch (const SimError &error) {
        // The sweep-level deadline tripped: the batch stopped early
        // and the skipped cells count as failures.
        std::fprintf(stderr, "%s\n", error.what());
        return 6;
    } catch (const FatalError &error) {
        std::fprintf(stderr, "%s\n", error.what());
        return 1;
    }
}
