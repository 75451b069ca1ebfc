/**
 * @file
 * Shared helpers for the experiment harnesses (one binary per paper
 * table/figure). Each helper runs a kernel on a configuration and
 * validates the result; harnesses only format rows.
 */

#ifndef XLOOPS_BENCH_BENCH_UTIL_H
#define XLOOPS_BENCH_BENCH_UTIL_H

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/json.h"
#include "common/log.h"
#include "common/pool.h"
#include "energy/energy.h"
#include "kernels/kernel.h"
#include "system/sweep.h"

namespace xloops::benchutil {

/**
 * Parse the experiment harnesses' common command line: `--jobs N`
 * selects the worker count for the sweep (default: XLOOPS_JOBS or the
 * hardware concurrency, see defaultJobs()). Anything else prints
 * usage and exits 1.
 */
inline unsigned
parseJobs(int argc, char **argv)
{
    unsigned jobs = 0;  // 0 = defaultJobs()
    const std::string self = argv[0];
    const cli::Command cmd{
        self.substr(self.find_last_of('/') + 1),
        "[options]",
        {cli::option("--jobs", "<n>",
                     "worker threads (default: XLOOPS_JOBS or the hardware "
                     "concurrency)",
                     jobs)}};
    try {
        cli::parseCommandLine(cmd, argc, argv);
    } catch (const FatalError &err) {
        std::fprintf(stderr, "%s\n", err.what());
        std::exit(1);
    }
    return jobs;
}

/** Cycles + validation + stats for one (kernel, config, mode) cell. */
struct Cell
{
    Cycle cycles = 0;
    bool passed = false;
    double energyNj = 0;
    StatGroup stats;
};

inline Cell
runCell(const std::string &kernel, const SysConfig &cfg, ExecMode mode,
        bool gp_binary = false)
{
    const KernelRun run =
        runKernel(kernelByName(kernel), cfg, mode, gp_binary);
    Cell cell;
    cell.cycles = run.result.cycles;
    cell.passed = run.passed;
    cell.stats = run.result.stats;
    const EnergyModel model;
    cell.energyNj = model.dynamicEnergy(cfg, run.result.stats).totalNj();
    if (!run.passed)
        std::fprintf(stderr, "VALIDATION FAILED: %s\n", run.error.c_str());
    return cell;
}

/** GP-ISA serial binary on a baseline GPP (the normalization basis). */
inline Cell
gpBaseline(const std::string &kernel, const SysConfig &cfg)
{
    return runCell(kernel, cfg, ExecMode::Traditional, true);
}

/** Adapt one parallel-sweep result to the Cell the row formatters
 *  use (same validation-failure reporting as runCell). */
inline Cell
toCell(const SweepCellResult &r)
{
    Cell cell;
    cell.cycles = r.cycles;
    cell.passed = r.passed;
    cell.stats = r.stats;
    cell.energyNj = r.energyNj;
    if (!r.passed)
        std::fprintf(stderr, "VALIDATION FAILED: %s\n", r.error.c_str());
    return cell;
}

/** Shorthand for building sweep cells in the harnesses. */
inline SweepCell
cell(const std::string &kernel, const SysConfig &cfg, ExecMode mode,
     bool gp_binary = false)
{
    return SweepCell{kernel, cfg, mode, gp_binary};
}

/** GP-ISA baseline sweep cell. */
inline SweepCell
gpCell(const std::string &kernel, const SysConfig &cfg)
{
    return cell(kernel, cfg, ExecMode::Traditional, true);
}

/** Run a harness's cells across @p jobs workers, skipping per-cell
 *  stats-JSON capture (the harnesses only read cycles/stats). */
inline std::vector<SweepCellResult>
runBenchSweep(const std::vector<SweepCell> &cells, unsigned jobs)
{
    SweepOptions opts;
    opts.jobs = jobs;
    opts.captureStats = false;
    return runSweep(cells, opts);
}

inline double
ratio(Cycle base, Cycle other)
{
    return other == 0 ? 0.0
                      : static_cast<double>(base) /
                            static_cast<double>(other);
}

/**
 * Machine-readable results for one experiment harness: rows of named
 * numeric metrics written as `BENCH_<name>.json` next to the text
 * table, sharing the stable sorted JSON serializer with
 * `xsim --stats-json` so downstream tooling parses one schema.
 */
class BenchReport
{
  public:
    explicit BenchReport(const std::string &name) : benchName(name) {}

    /** Start a row (e.g. one kernel); returns its index. */
    size_t
    beginRow(const std::string &label)
    {
        rows.push_back({label, {}});
        return rows.size() - 1;
    }

    /** Add a metric to the most recent row. */
    void
    metric(const std::string &key, double value)
    {
        rows.back().metrics[key] = value;
    }

    void
    note(const std::string &key, const std::string &value)
    {
        notes[key] = value;
    }

    /** Write BENCH_<name>.json into @p dir (default: cwd). */
    bool
    write(const std::string &dir = ".") const
    {
        const std::string path = dir + "/BENCH_" + benchName + ".json";
        std::ofstream out(path);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
            return false;
        }
        JsonWriter w(out, /*pretty=*/true);
        w.beginObject();
        w.field("schema", "xloops-bench-1");
        w.field("bench", benchName);
        for (const auto &[key, value] : notes)
            w.field(key, value);
        w.key("rows").beginArray();
        for (const Row &row : rows) {
            w.beginObject();
            w.field("label", row.label);
            for (const auto &[key, value] : row.metrics)
                w.field(key, value);
            w.endObject();
        }
        w.endArray();
        w.endObject();
        out << "\n";
        std::printf("wrote %s\n", path.c_str());
        return true;
    }

  private:
    struct Row
    {
        std::string label;
        std::map<std::string, double> metrics;
    };

    std::string benchName;
    std::map<std::string, std::string> notes;
    std::vector<Row> rows;
};

} // namespace xloops::benchutil

#endif // XLOOPS_BENCH_BENCH_UTIL_H
