/**
 * @file
 * xsim — whole-system simulator driver.
 *
 * Run `xsim --help` for usage; the help text is generated from the
 * same flag table the parser uses (common/cli.h), so the two cannot
 * drift apart. The flags that name the run are RunSpec's
 * (runSpecFlags), shared with xloopsc. Sweeps over several kernels
 * are xsweep's job.
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

#include "asm/assembler.h"
#include "common/cli.h"
#include "common/json.h"
#include "common/log.h"
#include "common/loop_profile.h"
#include "common/serialize.h"
#include "common/sim_error.h"
#include "common/trace.h"
#include "energy/energy.h"
#include "kernels/kernel.h"
#include "system/capsule.h"
#include "system/report.h"
#include "system/sampling.h"

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

void
listEverything()
{
    std::printf("configurations:\n");
    for (const SysConfig &cfg : configs::all())
        std::printf("  %s\n", cfg.name.c_str());
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
    bool list = false;
    bool profile = false;
    u64 checkpointEvery = 0;
    std::string checkpointPrefix;
    std::string restorePath;
    std::string capsulePath;
    std::string replayPath;
    u64 samplePeriod = 0;
    u64 sampleWindow = 0;
    SampleOptions sopts;

    // Live outside the try so the SimError catch can write a capsule.
    RunSpec spec;
    CapsuleContext capCtx;

    cli::Command cmd{"xsim", "[options] (program.s | -k kernel)",
                     runSpecFlags(spec)};
    cmd.flags.insert(
        cmd.flags.end(),
        {
            cli::toggle("-e", "print the dynamic energy estimate", energy),
            cli::toggle("-v", "dump all statistics", verbose),
            cli::toggle("-l", "list configurations and kernels", list),
            cli::option("--trace", "<file>",
                        "write a Chrome trace_event JSON timeline "
                        "(Perfetto-viewable)",
                        tracePath),
            cli::option("--stats-json", "<file>",
                        "write counters, histograms, and per-loop "
                        "profiles as JSON",
                        statsJsonPath),
            cli::toggle("--profile",
                        "print the per-loop profile after the run",
                        profile),
            cli::option("--checkpoint-every", "<n>",
                        "write a checkpoint every n committed GPP "
                        "instructions",
                        checkpointEvery),
            cli::option("--checkpoint-prefix", "<pfx>",
                        "checkpoint file prefix (default ckpt => "
                        "ckpt-<inst>.json)",
                        checkpointPrefix),
            cli::option("--restore", "<file>",
                        "resume from a checkpoint file", restorePath),
            cli::option("--sample-period", "<n>",
                        "SMARTS sampled cycle simulation: instructions "
                        "per sampling unit (0 = full simulation; "
                        "requires -m T)",
                        samplePeriod),
            cli::option("--sample-window", "<n>",
                        "measured instructions per detailed window "
                        "(default 500)",
                        sampleWindow),
            cli::option("--sample-warmup", "<n>",
                        "detailed warmup before each window (default: "
                        "the window size)",
                        sopts.warmup),
            cli::option("--sample-seed", "<n>",
                        "seed for sampled window placement", sopts.seed),
            cli::option("--capsule", "<file>",
                        "write a self-contained replay capsule when the "
                        "run dies",
                        capsulePath),
            cli::option("--replay", "<file>",
                        "re-execute a capsule, verify the identical "
                        "failure, and bisect to the first divergent "
                        "iteration",
                        replayPath),
        });
    cmd.epilog = "exit codes: 0 clean, 1 user error, 2 checker failure, "
                 "3 diagnosis,\n"
                 "            4 panic, 5 divergence, 6 interrupted "
                 "(SIGINT/SIGTERM: final\n"
                 "            checkpoint with --checkpoint-prefix, "
                 "capsule written)\n";
    cmd.positional = [&path](const std::string &arg) { path = arg; };

    int checkerExit = 0;
    try {
        const cli::Parsed given = cli::parseCommandLine(cmd, argc, argv);
        finishRunSpecFlags(spec, given);
        if (list) {
            listEverything();
            return 0;
        }

        // --replay rebuilds the entire run from the capsule; any
        // other flag on the same command line would be silently
        // ignored, which reads like it took effect. Refuse instead.
        if (!replayPath.empty() && argc != 3)
            cli::usageError(cmd, "--replay takes only the capsule file; "
                                 "drop the other options");
        if (!replayPath.empty())
            return replayCapsule(replayPath);

        // Orphan sampling knobs: without --sample-period they would
        // silently do nothing.
        if (!given.has("--sample-period") &&
            (given.has("--sample-window") || given.has("--sample-warmup") ||
             given.has("--sample-seed"))) {
            cli::usageError(cmd, "--sample-window/--sample-warmup/"
                                 "--sample-seed need --sample-period");
        }

        // Sampled cycle simulation: threaded functional fast-forward
        // with periodic cycle-accurate windows; --stats-json then
        // writes the "xloops-sample-1" report. Architectural state is
        // exact (every instruction retires), so kernel validation
        // still applies; only cycle counts are estimated.
        if (samplePeriod != 0) {
            if (spec.mode != "T") {
                cli::usageError(cmd, "sampled simulation models "
                                     "traditional execution; use -m T");
            }
            if (spec.lockstep || checkpointEvery != 0 ||
                !tracePath.empty() || !capsulePath.empty() ||
                spec.injectSeed != 0 || spec.haveWatchdog) {
                cli::usageError(cmd, "sampled runs support only -c, -m T, "
                                     "-k/<program>, --sample-*, "
                                     "--restore, and --stats-json");
            }

            sopts.period = samplePeriod;
            if (sampleWindow != 0)
                sopts.window = sampleWindow;

            const SysConfig sampleCfg = configs::byName(spec.config);
            const Kernel *kernel =
                spec.kernel.empty() ? nullptr : &kernelByName(spec.kernel);
            if (kernel == nullptr && path.empty())
                cli::usageError(cmd, "no program given");
            const KernelImage *image =
                kernel ? &kernelImage(*kernel) : nullptr;
            const Program fileProg =
                image ? Program{} : assemble(readFile(path));
            const Program &prog = image ? image->program : fileProg;

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
                const std::string why =
                    checkAgainstGolden(*kernel, *image, samp.memory());
                std::printf("sampled kernel %s on %s mode T: %s\n",
                            spec.kernel.c_str(), sampleCfg.name.c_str(),
                            why.empty() ? "VALIDATED" : why.c_str());
                if (!why.empty())
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
        if (checkpointEvery != 0 && checkpointPrefix.empty())
            checkpointPrefix = "ckpt";
        if (!checkpointPrefix.empty()) {
            ropts.checkpointSink = [&checkpointPrefix](
                                       u64 inst, const std::string &json) {
                const std::string file =
                    strf(checkpointPrefix, "-", inst, ".json");
                std::ofstream out(file);
                if (!out)
                    fatal("cannot write checkpoint " + file);
                out << json;
            };
        }
        if (!restorePath.empty())
            ropts.restoreText = readFile(restorePath);
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
            if (path.empty())
                cli::usageError(cmd, "no program given");
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
