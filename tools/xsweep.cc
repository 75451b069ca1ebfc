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

#include "common/log.h"
#include "common/pool.h"
#include "common/serialize.h"
#include "common/sim_error.h"
#include "kernels/kernel.h"
#include "system/sweep.h"

using namespace xloops;

namespace {

struct Flag
{
    const char *name;
    const char *arg;
    const char *help;
};

const Flag flagTable[] = {
    {"--kernels", "<k1,k2|all>",
     "comma-separated kernel names, or 'all' (default) for Table II"},
    {"--configs", "<c1,c2>",
     "comma-separated configurations (default io+x); see xsim -l"},
    {"--modes", "<T,S,A>", "execution modes to cross (default S)"},
    {"--jobs", "<n>",
     "worker threads (default: XLOOPS_JOBS or hardware concurrency)"},
    {"--inject-seed", "<n>",
     "root fault seed; each cell derives its own seed from it"},
    {"--inject-rate", "<p>",
     "per-opportunity fault probability (default 0.02 with a seed)"},
    {"--max-insts", "<n>", "per-cell instruction valve"},
    {"--deadline-ms", "<n>",
     "wall-clock budget for the whole sweep (0 = none); on expiry "
     "remaining cells are skipped and the sweep exits 6"},
    {"--out", "<file>", "write the xloops-sweep-1 report here"},
    {"--help", nullptr,
     "print this usage and exit (exit codes: 0 all validated, 1 user "
     "error, 6 failed/skipped cells)"},
};

void
printUsage(std::FILE *out)
{
    std::fprintf(out, "usage: xsweep [options]\n");
    for (const Flag &f : flagTable) {
        std::string head = f.name;
        if (f.arg) {
            head += ' ';
            head += f.arg;
        }
        std::fprintf(out, "  %-22s %s\n", head.c_str(), f.help);
    }
}

std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (start <= s.size()) {
        const size_t comma = s.find(',', start);
        const std::string item =
            s.substr(start, comma == std::string::npos ? std::string::npos
                                                       : comma - start);
        if (!item.empty())
            out.push_back(item);
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string kernelList = "all";
    std::string configList = "io+x";
    std::string modeList = "S";
    std::string outPath;
    SweepOptions opts;
    double injectRate = 0.02;
    bool haveRate = false;

    try {
        for (int i = 1; i < argc; i++) {
            const std::string arg = argv[i];
            auto next = [&]() -> std::string {
                if (i + 1 >= argc) {
                    printUsage(stderr);
                    fatal(arg + " needs an argument");
                }
                return argv[++i];
            };
            const auto nextU64 = [&] { return parseU64(next(), arg); };
            if (arg == "--kernels")
                kernelList = next();
            else if (arg == "--configs")
                configList = next();
            else if (arg == "--modes")
                modeList = next();
            else if (arg == "--jobs")
                opts.jobs = static_cast<unsigned>(nextU64());
            else if (arg == "--inject-seed")
                opts.injectSeed = nextU64();
            else if (arg == "--inject-rate") {
                injectRate = parseDouble(next(), arg);
                haveRate = true;
            } else if (arg == "--max-insts")
                opts.maxInsts = nextU64();
            else if (arg == "--deadline-ms")
                opts.deadlineMs = nextU64();
            else if (arg == "--out")
                outPath = next();
            else if (arg == "--help" || arg == "-h") {
                printUsage(stdout);
                return 0;
            } else {
                printUsage(stderr);
                fatal("unknown option '" + arg + "'");
            }
        }
        if (opts.injectSeed != 0 || haveRate)
            opts.injectRate = injectRate;

        std::vector<std::string> kernels;
        if (kernelList == "all") {
            kernels = tableIIKernelNames();
        } else {
            kernels = splitList(kernelList);
            for (const std::string &k : kernels)
                kernelByName(k);  // fail fast on typos
        }
        std::vector<SysConfig> cfgs;
        for (const std::string &c : splitList(configList))
            cfgs.push_back(configs::byName(c));
        std::vector<ExecMode> modes;
        for (const std::string &m : splitList(modeList))
            modes.push_back(execModeByName(m));
        if (kernels.empty() || cfgs.empty() || modes.empty())
            fatal("empty kernel, config, or mode list");

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
