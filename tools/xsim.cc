/**
 * @file
 * xsim — whole-system simulator driver.
 *
 * Run `xsim --help` for usage; the help text is generated from the
 * same flag table the parser uses, so the two cannot drift apart.
 *
 * Observability outputs:
 *  - `--trace out.json` writes a Chrome trace_event JSON timeline
 *    (one track per LPSU lane plus GPP/LMU/CIB/MEM/SYS) viewable in
 *    Perfetto or chrome://tracing.
 *  - `--stats-json out.json` writes every counter, histogram, and
 *    per-loop profile as stable sorted JSON for downstream tooling.
 *
 * Robustness outputs:
 *  - `--lockstep` shadow-executes the golden functional model and
 *    aborts with the first architectural mismatch (exit 5).
 *  - `--checkpoint-every N` / `--restore f.json` deterministically
 *    checkpoint and resume a run ("xloops-ckpt-1").
 *  - `--capsule f.json` writes a self-contained replay capsule when
 *    the run dies; `--replay f.json` re-executes it, verifies the
 *    identical failure, and bisects to the first divergent iteration.
 *
 * Exit codes: 0 clean, 1 user/config error, 2 golden-checker failure,
 * 3 watchdog / simulation-limit diagnosis (machine snapshot printed),
 * 4 simulator panic, 5 lockstep divergence, 6 interrupted.
 *
 * SIGINT/SIGTERM request a cooperative stop: the run halts at the
 * next committed instruction, takes a final checkpoint when
 * --checkpoint-prefix is set (so the run is resumable with
 * --restore), writes a replay capsule (to --capsule, or
 * xsim-interrupt.capsule.json by default), and exits 6.
 */

#include <atomic>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "asm/assembler.h"
#include "common/json.h"
#include "common/log.h"
#include "common/loop_profile.h"
#include "common/serialize.h"
#include "common/sim_error.h"
#include "common/trace.h"
#include "energy/energy.h"
#include "kernels/kernel.h"
#include "cpu/threaded.h"
#include "system/capsule.h"
#include "system/report.h"
#include "system/sampling.h"
#include "system/sweep.h"

using namespace xloops;

namespace {

/** Set by the SIGINT/SIGTERM handlers; the run polls it at every
 *  committed instruction (see RunOptions::stopFlag). */
std::atomic<u32> interruptFlag{0};

void
onInterrupt(int)
{
    interruptFlag.store(static_cast<u32>(StopCause::Interrupted));
}

/** One command-line option: the usage text is rendered from this
 *  table, so `--help` always matches what the parser accepts. */
struct Flag
{
    const char *name;
    const char *arg;   ///< metavariable, or nullptr for boolean flags
    const char *help;
};

const Flag flagTable[] = {
    {"-c", "<config>", "system configuration (default io+x); see -l"},
    {"-m", "<T|S|A>", "execution mode (default S)"},
    {"-k", "<kernel>",
     "run a registered kernel instead of a file; a comma-separated "
     "list (or 'all') sweeps them across --jobs workers"},
    {"--jobs", "<n>",
     "worker threads for a -k kernel sweep (default: XLOOPS_JOBS or "
     "the hardware concurrency)"},
    {"-e", nullptr, "print the dynamic energy estimate"},
    {"-v", nullptr, "dump all statistics"},
    {"-l", nullptr, "list configurations and kernels"},
    {"--trace", "<file>",
     "write a Chrome trace_event JSON timeline (Perfetto-viewable)"},
    {"--stats-json", "<file>",
     "write counters, histograms, and per-loop profiles as JSON"},
    {"--profile", nullptr, "print the per-loop profile after the run"},
    {"--inject-seed", "<n>", "enable fault injection with RNG seed n"},
    {"--inject-rate", "<p>",
     "per-opportunity fault probability (default 0.02 with a seed)"},
    {"--inject-arch-rate", "<p>",
     "architectural hand-back corruption probability (needs a seed; "
     "exercises the lockstep checker)"},
    {"--watchdog-cycles", "<n>", "LPSU no-commit watchdog (0 disables)"},
    {"--lockstep", nullptr,
     "differential lockstep verification against the golden functional "
     "model (divergence = exit 5)"},
    {"--checkpoint-every", "<n>",
     "write a checkpoint every n committed GPP instructions"},
    {"--checkpoint-prefix", "<pfx>",
     "checkpoint file prefix (default ckpt => ckpt-<inst>.json)"},
    {"--restore", "<file>", "resume from a checkpoint file"},
    {"--sample-period", "<n>",
     "SMARTS sampled cycle simulation: instructions per sampling unit "
     "(0 = full simulation; requires -m T)"},
    {"--sample-window", "<n>",
     "measured instructions per detailed window (default 500)"},
    {"--sample-warmup", "<n>",
     "detailed warmup before each window (default: the window size)"},
    {"--sample-seed", "<n>", "seed for sampled window placement"},
    {"--capsule", "<file>",
     "write a self-contained replay capsule when the run dies"},
    {"--replay", "<file>",
     "re-execute a capsule, verify the identical failure, and bisect "
     "to the first divergent iteration"},
    {"--help", nullptr, "print this usage and exit"},
};

void
printUsage(std::FILE *out)
{
    std::fprintf(out, "usage: xsim [options] (program.s | -k kernel)\n");
    for (const Flag &f : flagTable) {
        std::string head = f.name;
        if (f.arg) {
            head += ' ';
            head += f.arg;
        }
        std::fprintf(out, "  %-22s %s\n", head.c_str(), f.help);
    }
    std::fprintf(out,
                 "exit codes: 0 clean, 1 user error, 2 checker "
                 "failure, 3 diagnosis,\n"
                 "            4 panic, 5 divergence, 6 interrupted "
                 "(SIGINT/SIGTERM: final\n"
                 "            checkpoint with --checkpoint-prefix, "
                 "capsule written)\n");
}

/** A contradictory or malformed command line: show what would have
 *  been legal, then fail (FatalError => exit 1). */
[[noreturn]] void
usageError(const std::string &msg)
{
    printUsage(stderr);
    fatal(msg);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
listEverything()
{
    std::printf("configurations:\n");
    for (const auto &cfg : configs::mainGrid())
        std::printf("  %s\n", cfg.name.c_str());
    for (const char *name : {"ooo/4+x4+t", "ooo/4+x8", "ooo/4+x8+r",
                             "ooo/4+x8+r+m", "io+xf", "ooo/4+xf"})
        std::printf("  %s\n", name);
    std::printf("kernels:\n");
    for (const Kernel &k : kernelRegistry())
        std::printf("  %-16s (%s, suite %s)\n", k.name.c_str(),
                    k.patterns.c_str(), k.suite.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    std::string path;
    std::string tracePath;
    std::string statsJsonPath;
    bool energy = false;
    bool verbose = false;
    bool profile = false;
    unsigned jobsFlag = 0;
    u64 checkpointEvery = 0;
    std::string checkpointPrefix;
    std::string restorePath;
    std::string capsulePath;
    std::string replayPath;
    u64 samplePeriod = 0;
    bool haveSamplePeriod = false;
    u64 sampleWindow = 0;
    bool haveSampleWindow = false;
    u64 sampleWarmup = 0;
    bool haveSampleWarmup = false;
    u64 sampleSeed = 0;
    bool haveSampleSeed = false;

    // Live outside the try so the SimError catch can write a capsule.
    RunSpec spec;
    spec.injectRate = 0.02;  // the --inject-rate default with a seed
    CapsuleContext capCtx;

    int checkerExit = 0;
    try {
        for (int i = 1; i < argc; i++) {
            const std::string arg = argv[i];
            auto next = [&]() -> std::string {
                if (i + 1 >= argc) {
                    // A flag with its argument missing is the same
                    // class of user error as an unknown flag: show
                    // what would have been legal, then fail.
                    printUsage(stderr);
                    fatal(arg + " needs an argument");
                }
                return argv[++i];
            };
            const auto nextU64 = [&] { return parseU64(next(), arg); };
            const auto nextDouble = [&] { return parseDouble(next(), arg); };
            if (arg == "-c")
                spec.config = next();
            else if (arg == "-m")
                spec.mode = next();
            else if (arg == "-k")
                spec.kernel = next();
            else if (arg == "-e")
                energy = true;
            else if (arg == "-v")
                verbose = true;
            else if (arg == "--trace")
                tracePath = next();
            else if (arg == "--stats-json")
                statsJsonPath = next();
            else if (arg == "--profile")
                profile = true;
            else if (arg == "--jobs")
                jobsFlag = static_cast<unsigned>(nextU64());
            else if (arg == "--inject-seed")
                spec.injectSeed = nextU64();
            else if (arg == "--inject-rate")
                spec.injectRate = nextDouble();
            else if (arg == "--inject-arch-rate")
                spec.injectArchRate = nextDouble();
            else if (arg == "--lockstep")
                spec.lockstep = true;
            else if (arg == "--checkpoint-every")
                checkpointEvery = nextU64();
            else if (arg == "--checkpoint-prefix")
                checkpointPrefix = next();
            else if (arg == "--restore")
                restorePath = next();
            else if (arg == "--sample-period") {
                samplePeriod = nextU64();
                haveSamplePeriod = true;
            } else if (arg == "--sample-window") {
                sampleWindow = nextU64();
                haveSampleWindow = true;
            } else if (arg == "--sample-warmup") {
                sampleWarmup = nextU64();
                haveSampleWarmup = true;
            } else if (arg == "--sample-seed") {
                sampleSeed = nextU64();
                haveSampleSeed = true;
            }
            else if (arg == "--capsule")
                capsulePath = next();
            else if (arg == "--replay")
                replayPath = next();
            else if (arg == "--watchdog-cycles") {
                spec.watchdogCycles = nextU64();
                spec.haveWatchdog = true;
            } else if (arg == "--help" || arg == "-h") {
                printUsage(stdout);
                return 0;
            } else if (arg == "-l") {
                listEverything();
                return 0;
            } else if (!arg.empty() && arg[0] == '-') {
                // A typo'd option must not silently become a program
                // path (an --inject-seed typo would run un-injected).
                printUsage(stderr);
                fatal("unknown option '" + arg + "'");
            } else {
                path = arg;
            }
        }

        // --replay rebuilds the entire run from the capsule; any
        // other flag on the same command line would be silently
        // ignored, which reads like it took effect. Refuse instead.
        if (!replayPath.empty() && argc != 3)
            usageError("--replay takes only the capsule file; drop "
                       "the other options");
        if (!replayPath.empty())
            return replayCapsule(replayPath);

        // Orphan sampling knobs: without --sample-period they would
        // silently do nothing.
        if (!haveSamplePeriod &&
            (haveSampleWindow || haveSampleWarmup || haveSampleSeed)) {
            usageError("--sample-window/--sample-warmup/--sample-seed "
                       "need --sample-period");
        }

        // Sampled cycle simulation: threaded functional fast-forward
        // with periodic cycle-accurate windows; --stats-json then
        // writes the "xloops-sample-1" report. Architectural state is
        // exact (every instruction retires), so kernel validation
        // still applies; only cycle counts are estimated.
        if (samplePeriod != 0) {
            if (spec.mode != "T") {
                usageError("sampled simulation models traditional "
                           "execution; use -m T");
            }
            if (spec.lockstep || checkpointEvery != 0 ||
                !tracePath.empty() || !capsulePath.empty() ||
                spec.injectSeed != 0 || spec.haveWatchdog) {
                usageError("sampled runs support only -c, -m T, "
                           "-k/<program>, --sample-*, --restore, "
                           "--jobs, and --stats-json");
            }
            if (spec.kernel == "all" ||
                spec.kernel.find(',') != std::string::npos)
                usageError("sampled runs take a single kernel");

            SampleOptions sopts;
            sopts.period = samplePeriod;
            if (sampleWindow != 0)
                sopts.window = sampleWindow;
            if (haveSampleWarmup)
                sopts.warmup = sampleWarmup;
            sopts.seed = sampleSeed;

            const SysConfig sampleCfg = configs::byName(spec.config);
            const Kernel *kernel =
                spec.kernel.empty() ? nullptr : &kernelByName(spec.kernel);
            if (kernel == nullptr && path.empty()) {
                printUsage(stderr);
                fatal("no program given");
            }
            const Program prog =
                assemble(kernel ? kernel->source : readFile(path));

            SampledSimulation samp(sampleCfg, sopts);
            samp.loadProgram(prog);
            if (kernel && kernel->setup)
                kernel->setup(samp.memory(), prog);
            if (!restorePath.empty())
                samp.restore(readFile(restorePath), prog);
            const SampleResult r = samp.run(prog);

            if (kernel) {
                // Validate against the serial golden model exactly as
                // a full run would.
                MainMemory golden;
                prog.loadInto(golden);
                if (kernel->setup)
                    kernel->setup(golden, prog);
                ThreadedExecutor goldenExec(golden);
                goldenExec.run(prog);
                bool passed = true;
                std::string why;
                if (kernel->deterministic) {
                    for (const auto &[symbol, words] : kernel->outputs) {
                        const Addr base = prog.symbol(symbol);
                        for (unsigned i = 0; i < words && passed; i++) {
                            if (samp.memory().readWord(base + 4 * i) !=
                                golden.readWord(base + 4 * i)) {
                                passed = false;
                                why = strf(symbol, "[", i,
                                           "] diverged from the serial "
                                           "golden run");
                            }
                        }
                    }
                }
                if (passed && kernel->check &&
                    !kernel->check(samp.memory(), prog, why))
                    passed = false;
                std::printf("sampled kernel %s on %s mode T: %s\n",
                            spec.kernel.c_str(), sampleCfg.name.c_str(),
                            passed ? "VALIDATED" : why.c_str());
                if (!passed)
                    checkerExit = 2;
            }

            std::printf("total insts       %llu (ff %llu, warmup %llu, "
                        "measured %llu)\n",
                        static_cast<unsigned long long>(r.totalInsts),
                        static_cast<unsigned long long>(r.ffInsts),
                        static_cast<unsigned long long>(r.warmupInsts),
                        static_cast<unsigned long long>(r.measuredInsts));
            std::printf("windows           %llu (phase %llu)\n",
                        static_cast<unsigned long long>(r.windows),
                        static_cast<unsigned long long>(r.phase));
            std::printf("cpi estimate      %.6f +/- %.6f\n", r.cpiEst,
                        r.cpiHalfWidth);
            std::printf("est cycles        %llu\n",
                        static_cast<unsigned long long>(r.estCycles));

            if (!statsJsonPath.empty()) {
                std::ofstream out(statsJsonPath);
                if (!out)
                    fatal("cannot write " + statsJsonPath);
                JsonWriter w(out, /*pretty=*/true);
                samp.writeJson(w, r);
                out << "\n";
                std::printf("stats: %s\n", statsJsonPath.c_str());
            }
            return checkerExit;
        }

        // Multi-kernel sweep mode: "-k k1,k2,..." or "-k all" runs
        // every named kernel on (config, mode) across --jobs workers
        // through the sweep harness; --stats-json then writes the
        // merged "xloops-sweep-1" report instead of a single-run
        // stats document.
        if (spec.kernel == "all" ||
            spec.kernel.find(',') != std::string::npos) {
            if (spec.lockstep || checkpointEvery || !restorePath.empty() ||
                !capsulePath.empty() || !tracePath.empty()) {
                fatal("kernel sweeps support only -c, -m, --jobs, "
                      "--inject-seed/--inject-rate, and --stats-json");
            }
            const SysConfig sweepCfg = configs::byName(spec.config);
            const ExecMode sweepMode = execModeByName(spec.mode);
            std::vector<std::string> kernels;
            if (spec.kernel == "all") {
                kernels = tableIIKernelNames();
            } else {
                std::istringstream list(spec.kernel);
                std::string item;
                while (std::getline(list, item, ','))
                    if (!item.empty())
                        kernels.push_back(item);
                for (const std::string &k : kernels)
                    kernelByName(k);  // fail fast on typos
            }
            SweepOptions sopts;
            sopts.jobs = jobsFlag;
            sopts.injectSeed = spec.injectSeed;
            sopts.injectRate = spec.injectSeed ? spec.injectRate : 0.0;
            const std::vector<SweepCell> cells =
                crossProduct(kernels, {sweepCfg}, {sweepMode});
            if (cells.empty())
                fatal("mode " + spec.mode + " needs an LPSU (+x config)");
            const std::vector<SweepCellResult> results =
                runSweep(cells, sopts);
            size_t passed = 0;
            for (size_t i = 0; i < results.size(); i++) {
                std::printf("kernel %s on %s mode %s: %s\n",
                            cells[i].kernel.c_str(),
                            sweepCfg.name.c_str(), spec.mode.c_str(),
                            results[i].passed
                                ? "VALIDATED"
                                : results[i].error.c_str());
                passed += results[i].passed ? 1 : 0;
            }
            std::printf("sweep: %zu/%zu cells validated\n", passed,
                        results.size());
            if (!statsJsonPath.empty()) {
                std::ofstream out(statsJsonPath);
                if (!out)
                    fatal("cannot write " + statsJsonPath);
                writeSweepJson(out, cells, results, sopts);
                std::printf("sweep report: %s\n", statsJsonPath.c_str());
            }
            return passed == results.size() ? 0 : 2;
        }

        std::string why;
        if (!spec.validate(why))
            fatal(why);
        const SysConfig cfg = spec.sysConfig();
        const ExecMode mode = execModeByName(spec.mode);

        // From here on a SIGINT/SIGTERM stops the run cooperatively
        // instead of killing the process: a final checkpoint (when a
        // prefix is configured) plus an interrupt capsule beat a
        // half-written stats file.
        struct sigaction sa{};
        sa.sa_handler = onInterrupt;
        sigemptyset(&sa.sa_mask);
        sigaction(SIGINT, &sa, nullptr);
        sigaction(SIGTERM, &sa, nullptr);

        RunOptions ropts;
        ropts.stopFlag = &interruptFlag;
        ropts.lockstep = spec.lockstep;
        ropts.checkpointEvery = checkpointEvery;
        ropts.checkpointPrefix = checkpointEvery
                                     ? (checkpointPrefix.empty()
                                            ? std::string("ckpt")
                                            : checkpointPrefix)
                                     : checkpointPrefix;
        ropts.restorePath = restorePath;
        // Captured even without --capsule so an interrupt can still
        // produce its default capsule.
        ropts.capsule = &capCtx;

        Tracer tracer;
        tracer.enable(!tracePath.empty());
        LoopProfiler profiler;
        Tracer *tr = tracePath.empty() ? nullptr : &tracer;
        LoopProfiler *prof =
            (!statsJsonPath.empty() || profile) ? &profiler : nullptr;

        SysResult result;
        if (!spec.kernel.empty()) {
            RunHooks hooks;
            hooks.tracer = tr;
            hooks.profiler = prof;
            hooks.runOptions = &ropts;
            hooks.maxInsts = spec.maxInsts;
            const KernelRun run = runKernel(kernelByName(spec.kernel), cfg,
                                            mode, spec.gpBinary, hooks);
            result = run.result;
            std::printf("kernel %s on %s mode %s: %s\n",
                        spec.kernel.c_str(), cfg.name.c_str(),
                        spec.mode.c_str(),
                        run.passed ? "VALIDATED" : run.error.c_str());
            if (!run.passed)
                checkerExit = 2;
        } else {
            if (path.empty()) {
                printUsage(stderr);
                fatal("no program given");
            }
            const Program prog = assemble(readFile(path));
            XloopsSystem sys(cfg);
            sys.setObserver(tr, prof);
            sys.loadProgram(prog);
            result = sys.run(prog, mode, spec.maxInsts, ropts);
        }

        std::printf("cycles            %llu\n",
                    static_cast<unsigned long long>(result.cycles));
        std::printf("gpp instructions  %llu\n",
                    static_cast<unsigned long long>(result.gppInsts));
        std::printf("lane instructions %llu\n",
                    static_cast<unsigned long long>(result.laneInsts));
        std::printf("xloops specialized %llu\n",
                    static_cast<unsigned long long>(
                        result.xloopsSpecialized));
        if (energy) {
            const EnergyModel model;
            const EnergyBreakdown e =
                model.dynamicEnergy(cfg, result.stats);
            std::printf("dynamic energy    %.1f nJ (gpp %.1f + lpsu "
                        "%.1f)\n",
                        e.totalNj(), e.gppNj, e.lpsuNj);
        }
        if (verbose)
            std::printf("%s", result.stats.dump("  ").c_str());
        if (profile)
            std::printf("%s", profiler.dump().c_str());

        if (!tracePath.empty()) {
            std::ofstream out(tracePath);
            if (!out)
                fatal("cannot write " + tracePath);
            tracer.writeChromeJson(out);
            std::printf("trace: %llu events -> %s\n",
                        static_cast<unsigned long long>(
                            tracer.totalEmitted()),
                        tracePath.c_str());
        }
        if (!statsJsonPath.empty()) {
            writeStatsJsonFile(statsJsonPath, spec.config, spec.mode,
                               spec.kernel.empty() ? path : spec.kernel,
                               result, profiler, tr);
            std::printf("stats: %s\n", statsJsonPath.c_str());
        }
        return checkerExit;
    } catch (const SimError &error) {
        // Recoverable diagnosis (watchdog, cycle/inst limits,
        // lockstep divergence): the machine snapshot is part of the
        // message, and the full run context becomes a replay capsule
        // when one was requested.
        std::fprintf(stderr, "%s\n", error.what());
        if (capsulePath.empty() &&
            error.kind() == SimErrorKind::Interrupted)
            capsulePath = "xsim-interrupt.capsule.json";
        if (!capsulePath.empty() && capCtx.valid) {
            try {
                writeCapsule(capsulePath, spec, capCtx, error, path);
                std::fprintf(stderr, "capsule: %s\n",
                             capsulePath.c_str());
            } catch (const FatalError &werr) {
                std::fprintf(stderr, "capsule write failed: %s\n",
                             werr.what());
            }
        }
        return error.exitCode();
    } catch (const PanicError &error) {
        std::fprintf(stderr, "%s\n", error.what());
        return 4;
    } catch (const FatalError &error) {
        std::fprintf(stderr, "%s\n", error.what());
        return 1;
    }
}
