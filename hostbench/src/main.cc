/**
 * @file
 * hostbench: the host-speed benchmark binary. run.py builds it and
 * runs
 *
 *   hostbench --workload <w> --seed <n> --seconds <s> --trace <0|1>
 *             --root <checkout> --run-dir <dir> --xloopsd <path>
 *             --reference <digests.json> [--miss-seeds <n>]
 *
 * and it prints one result object as the last line of stdout: the
 * end-to-end metrics untraced, or the per-layer metrics of a traced
 * run. `--miss-seeds` caps the service workload's S miss pool (the
 * self-test uses it to run past the pool's end);
 * `--make-reference <path>` regenerates the reference digests.
 */

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "bench.h"
#include "common/loop_profile.h"
#include "common/pool.h"
#include "kernels/kernel.h"
#include "system/config.h"
#include "system/report.h"
#include "system/sweep.h"

namespace hostbench {

using namespace xloops;

namespace {

const std::vector<std::string> &
workloads()
{
    static const std::vector<std::string> w = {"sweep-spec", "sweep-trad",
                                               "fuzz", "service"};
    return w;
}

/** The digest of one fault-free or fault-seeded kernel run, through
 *  the same steps and stats writer as a sweep cell or a service job. */
std::string
kernelDigest(const std::string &kernel, const SysConfig &base,
             ExecMode mode, bool gp, u64 faultSeed)
{
    SysConfig cfg = base;
    if (faultSeed)
        cfg.lpsu.faults = FaultConfig::uniform(faultSeed, missFaultRate);
    LoopProfiler profiler;
    RunHooks hooks;
    hooks.profiler = &profiler;
    const KernelRun run = runKernel(kernelByName(kernel), cfg, mode, gp,
                                    hooks);
    if (!run.passed)
        throw std::runtime_error(kernel + ": validation failed: " +
                                 run.error);
    std::ostringstream ss;
    writeStatsJson(ss, cfg.name, execModeName(mode), kernel, run.result,
                   profiler, nullptr);
    return resultDigest(run.result.cycles, run.result.gppInsts,
                        run.result.laneInsts, ss.str());
}

} // namespace

void
makeReference(const Args &args)
{
    struct Item
    {
        std::string kernel;
        SysConfig cfg;
        ExecMode mode;
        bool gp;
        u64 faultSeed;
    };
    std::vector<Item> items;
    for (const bool spec : {true, false})
        for (const SweepCell &c : sweepCells(spec))
            items.push_back({c.kernel, c.config, c.mode, c.gpBinary, 0});
    for (const std::string &k : serviceKernels()) {
        for (const std::string &c : serviceConfigs()) {
            const SysConfig cfg = configs::byName(c);
            items.push_back({k, cfg, ExecMode::Traditional, false, 0});
            items.push_back({k, cfg, ExecMode::Specialized, false, 0});
            for (u64 i = 0; i < missSeedsPerSpec; i++)
                items.push_back({k, cfg, ExecMode::Specialized, false,
                                 missFaultSeed(i)});
        }
    }
    const WorkerPool pool(2);
    const std::vector<std::string> digests =
        pool.map<std::string>(items.size(), [&](size_t i) {
            const Item &it = items[i];
            return kernelDigest(it.kernel, it.cfg, it.mode, it.gp,
                                it.faultSeed);
        });
    // Items of one fault-seeded spec are in seed order: concatenate.
    std::map<std::string, std::string> plain, faulted;
    for (size_t i = 0; i < items.size(); i++) {
        const Item &it = items[i];
        const std::string key =
            cellKey(it.kernel, it.cfg.name, execModeName(it.mode), it.gp);
        if (it.faultSeed)
            faulted[key] += digests[i];
        else
            plain[key] = digests[i];
    }
    std::ofstream out(args.reference);
    if (!out)
        throw std::runtime_error("cannot write " + args.reference);
    out << "{\n  \"schema\": \"hostbench-digests-1\"";
    for (const auto &[name, table] :
         {std::pair{"digests", &plain}, std::pair{"fault_digests", &faulted}}) {
        out << ",\n  \"" << name << "\": {";
        bool first = true;
        for (const auto &[key, digest] : *table) {
            out << (first ? "\n" : ",\n") << "    \"" << key << "\": \""
                << digest << "\"";
            first = false;
        }
        out << "\n  }";
    }
    out << "\n}\n";
    std::fprintf(stderr, "hostbench: wrote %zu digests to %s\n",
                 items.size(), args.reference.c_str());
}

} // namespace hostbench

using namespace hostbench;

namespace {

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "hostbench: %s\n"
                 "usage: hostbench --workload <sweep-spec|sweep-trad|fuzz|"
                 "service> --seed <n>\n"
                 "                 --seconds <s> --trace <0|1> --root <dir> "
                 "--run-dir <dir>\n"
                 "                 --xloopsd <path> --reference <file> "
                 "[--miss-seeds <n>]\n"
                 "       hostbench --make-reference <file>\n",
                 why.c_str());
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    try {
        for (int i = 1; i < argc; i++) {
            const std::string arg = argv[i];
            if (i + 1 >= argc)
                usage(arg + " needs a value");
            const std::string val = argv[++i];
            if (arg == "--workload")
                args.workload = val;
            else if (arg == "--seed")
                args.seed = std::stoull(val);
            else if (arg == "--seconds")
                args.seconds = std::stod(val);
            else if (arg == "--trace")
                args.trace = val == "1";
            else if (arg == "--root")
                args.root = val;
            else if (arg == "--run-dir")
                args.runDir = val;
            else if (arg == "--xloopsd")
                args.xloopsd = val;
            else if (arg == "--reference")
                args.reference = val;
            else if (arg == "--miss-seeds")
                args.missSeeds = std::stoull(val);
            else if (arg == "--make-reference") {
                args.reference = val;
                makeReference(args);
                return 0;
            } else
                usage("unknown option " + arg);
        }
        if (std::find(workloads().begin(), workloads().end(),
                      args.workload) == workloads().end())
            usage("unknown workload '" + args.workload + "'");
        if (args.runDir.empty() || args.reference.empty() ||
            args.seconds <= 0)
            usage("--run-dir, --reference and --seconds > 0 are required");
        std::filesystem::create_directories(args.runDir);

        const double steal0 = stealSeconds();
        const u64 t0 = nowNs();
        Outcome out;
        if (args.workload == "sweep-spec" || args.workload == "sweep-trad")
            runSweepWorkload(args, args.workload == "sweep-spec", out);
        else if (args.workload == "fuzz")
            runFuzzWorkload(args, out);
        else
            runServiceWorkload(args, out);
        if (out.attempted == 0)
            throw std::runtime_error("no operation ran");
        const double cpus =
            static_cast<double>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
        const double stealPct = 100.0 * (stealSeconds() - steal0) /
                                (secondsSince(t0) * cpus);
        completeMetrics(out, args.trace);
        printSummary(args, out, stealPct);
        printResult(out);
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "hostbench: %s\n", e.what());
        return 1;
    }
}
