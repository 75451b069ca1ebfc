/**
 * @file
 * xfuzz — generative differential fuzz farm.
 *
 * Generates random loop-nest programs with known-by-construction
 * dependence structure, then checks each one end to end (see
 * src/fuzz/harness.h): the analyzer's pattern selections must equal
 * the generator's ground truth, and a traditional run must match a
 * fault-injected specialized run byte-identically under the lockstep
 * checker. Failures are shrunk to a minimal repro (src/fuzz/shrink.h)
 * and written to the output directory as a replayable .xl corpus file
 * plus, for execution failures, a divergence capsule.
 *
 *   xfuzz --seed 1 --count 200            fixed-seed deterministic run
 *   xfuzz --minutes 5 --jobs 8            time-boxed soak
 *   xfuzz --replay repro.xl               replay one corpus file
 *   xfuzz --replay-dir tests/corpus       replay a corpus directory
 *
 * Exit codes: 0 all programs passed, 2 failures found (repros
 * written), 1 user error, 4 simulator panic outside a fuzz case.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>

#include "common/log.h"
#include "common/pool.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "common/sim_error.h"
#include "frontend/frontend.h"
#include "fuzz/harness.h"
#include "fuzz/shrink.h"

using namespace xloops;

namespace {

void
printUsage(std::FILE *out)
{
    std::fprintf(
        out,
        "usage: xfuzz [options]\n"
        "  --seed <n>         root seed (default 1); program i uses "
        "seed+i\n"
        "  --count <n>        programs to check (default 100)\n"
        "  --minutes <m>      run time-boxed batches instead of "
        "--count\n"
        "  --jobs <n>         worker threads (default: XLOOPS_JOBS or "
        "hw)\n"
        "  --out <dir>        repro/capsule directory (default "
        "xfuzz-out)\n"
        "  --config <name>    system configuration (default io+x)\n"
        "  --inject-rate <p>  specialized-run fault rate (default "
        "0.05)\n"
        "  --inject-seed <n>  fixed fault seed (default: derived per "
        "program)\n"
        "  --max-insts <n>    per-run instruction budget\n"
        "  --replay <file>    replay one corpus file and exit\n"
        "  --replay-dir <dir> replay every .xl file in a directory\n"
        "  --help             print this usage and exit\n");
}

[[noreturn]] void
usageError(const std::string &msg)
{
    printUsage(stderr);
    fatal(msg);
}

/** Everything a worker reports for one generated program. */
struct CaseResult
{
    u64 seed = 0;
    std::string name;
    std::string recipe;
    std::vector<FuzzFailure> failures;
};

/** The analyzer's selections for @p source (nullopt: does not even
 *  parse/compile). With @p fission, the post-fission selections. */
std::optional<std::vector<std::string>>
observedSelections(const std::string &source, bool fission)
{
    try {
        FrontendModule mod = parseModule(source);
        std::vector<LoopReport> reps;
        if (fission) {
            FrontendOptions o;
            o.fission = true;
            reps = compileModule(mod, o).loops;
        } else {
            reps = reportLoops(mod.topLevel);
        }
        std::vector<std::string> out;
        out.reserve(reps.size());
        for (const LoopReport &r : reps)
            out.push_back(r.selection);
        return out;
    } catch (...) {
        return std::nullopt;
    }
}

/** Still-fails predicate for one failure class (see shrink.h). */
FailPredicate
predicateFor(const std::string &phase, const GenProgram &original,
             const FuzzOptions &opts)
{
    if (phase == "truth" || phase == "fission-truth") {
        // An analyzer-vs-ground-truth mismatch: pin the analyzer's
        // (wrong) observations so every accepted edit preserves the
        // exact disagreement with the original ground truth.
        const auto obs = observedSelections(original.source, false);
        const auto fobs =
            original.useFission
                ? observedSelections(original.source, true)
                : std::nullopt;
        return [obs, fobs](const GenProgram &g) {
            if (observedSelections(g.source, false) != obs)
                return false;
            return !fobs ||
                   observedSelections(g.source, true) == fobs;
        };
    }
    if (phase == "panic") {
        FuzzOptions so = opts;
        so.checkTruth = false;
        so.capsuleDir.clear();
        return [so](const GenProgram &g) {
            try {
                checkProgram(g, so);
                return false;
            } catch (...) {
                return true;
            }
        };
    }
    // Execution/compile failures: the shrunk program must fail in the
    // same first phase; its (possibly different) analyzer verdicts
    // are recomputed for the repro's expect directives afterwards.
    FuzzOptions so = opts;
    so.checkTruth = false;
    so.capsuleDir.clear();
    return [so, phase](const GenProgram &g) {
        try {
            return checkProgram(g, so).firstPhase() == phase;
        } catch (...) {
            return false;
        }
    };
}

/** Shrink a failing program and write its repro corpus file (and, for
 *  execution failures, a divergence capsule). Returns the path. */
std::string
writeRepro(const GenProgram &original, const std::string &phase,
           const FuzzOptions &opts, const std::string &outDir)
{
    GenProgram shrunk =
        shrinkProgram(original, predicateFor(phase, original, opts));

    // Directives the repro replays with. For truth failures the
    // expectation stays the original ground truth (that is the bug);
    // for everything else it is whatever the analyzer says about the
    // shrunk program, so corpus replay exercises only the pinned
    // execution failure.
    std::vector<std::string> expect = shrunk.truths;
    std::vector<std::string> fissionExpect = shrunk.fissionTruths;
    if (phase != "truth" && phase != "fission-truth") {
        if (const auto obs = observedSelections(shrunk.source, false))
            expect = *obs;
        if (shrunk.useFission) {
            if (const auto fobs =
                    observedSelections(shrunk.source, true))
                fissionExpect = *fobs;
        }
    }

    const u64 faultSeed =
        opts.injectSeed ? opts.injectSeed
                        : mix64(shrunk.seed ? shrunk.seed : 0x5eed);
    const std::string path = outDir + "/" + shrunk.name + ".xl";
    {
        std::ofstream out(path);
        if (!out)
            fatal("cannot write " + path);
        out << "//! expect:";
        for (size_t i = 0; i < expect.size(); i++)
            out << (i ? ", " : " ") << expect[i];
        out << "\n";
        if (shrunk.useFission) {
            out << "//! options: fission\n";
            out << "//! fission-expect:";
            for (size_t i = 0; i < fissionExpect.size(); i++)
                out << (i ? ", " : " ") << fissionExpect[i];
            out << "\n";
        }
        out << "//! seed: " << faultSeed << "\n";
        out << "// shrunk from generator seed " << shrunk.seed
            << " (recipe " << shrunk.recipe << "), failing phase: "
            << phase << "\n";
        out << shrunk.source;
    }

    // Confirmation pass over the shrunk program with capsules on —
    // an execution failure leaves a replayable capsule next to the
    // repro.
    if (phase != "truth" && phase != "fission-truth" &&
        phase != "panic") {
        FuzzOptions co = opts;
        co.checkTruth = false;
        co.capsuleDir = outDir;
        try {
            checkProgram(shrunk, co);
        } catch (...) {
        }
    }
    return path;
}

int
replayFiles(const std::vector<std::string> &paths,
            const FuzzOptions &opts)
{
    unsigned failed = 0;
    for (const std::string &path : paths) {
        const CorpusCase c = loadCorpusFile(path);
        const FuzzVerdict v = checkCorpusCase(c, opts);
        if (v.ok()) {
            std::printf("replay %s: ok\n", path.c_str());
        } else {
            failed++;
            for (const FuzzFailure &f : v.failures)
                std::printf("replay %s: %s: %s\n", path.c_str(),
                            f.phase.c_str(), f.detail.c_str());
        }
    }
    if (failed) {
        std::printf("xfuzz: %u of %zu replays FAILED\n", failed,
                    paths.size());
        return 2;
    }
    std::printf("xfuzz: all %zu replays passed\n", paths.size());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    u64 rootSeed = 1;
    unsigned count = 100;
    unsigned minutes = 0;
    unsigned jobs = 0;
    std::string outDir = "xfuzz-out";
    std::string replayPath;
    std::string replayDir;
    FuzzOptions opts;

    try {
        for (int i = 1; i < argc; i++) {
            const std::string arg = argv[i];
            auto next = [&]() -> std::string {
                if (i + 1 >= argc)
                    usageError(arg + " needs an argument");
                return argv[++i];
            };
            const auto nextU64 = [&] { return parseU64(next(), arg); };
            if (arg == "--seed")
                rootSeed = nextU64();
            else if (arg == "--count")
                count = static_cast<unsigned>(nextU64());
            else if (arg == "--minutes")
                minutes = static_cast<unsigned>(nextU64());
            else if (arg == "--jobs")
                jobs = static_cast<unsigned>(nextU64());
            else if (arg == "--out")
                outDir = next();
            else if (arg == "--config")
                opts.configName = next();
            else if (arg == "--inject-rate")
                opts.injectRate = parseDouble(next(), arg);
            else if (arg == "--inject-seed")
                opts.injectSeed = nextU64();
            else if (arg == "--max-insts")
                opts.maxInsts = nextU64();
            else if (arg == "--replay")
                replayPath = next();
            else if (arg == "--replay-dir")
                replayDir = next();
            else if (arg == "--help" || arg == "-h") {
                printUsage(stdout);
                return 0;
            } else {
                usageError("unknown option '" + arg + "'");
            }
        }
        if (!replayPath.empty() && !replayDir.empty())
            usageError("--replay and --replay-dir are exclusive");
        if (count == 0 && minutes == 0)
            usageError("--count must be at least 1");

        if (!replayPath.empty())
            return replayFiles({replayPath}, opts);
        if (!replayDir.empty()) {
            std::vector<std::string> paths;
            for (const auto &entry :
                 std::filesystem::directory_iterator(replayDir)) {
                if (entry.path().extension() == ".xl")
                    paths.push_back(entry.path().string());
            }
            std::sort(paths.begin(), paths.end());
            if (paths.empty())
                fatal("no .xl files in " + replayDir);
            return replayFiles(paths, opts);
        }

        const WorkerPool pool(jobs);
        const auto start = std::chrono::steady_clock::now();
        const auto deadline =
            start + std::chrono::minutes(minutes);

        unsigned total = 0;
        std::vector<CaseResult> failures;
        u64 nextSeed = rootSeed;
        bool more = true;
        while (more) {
            const unsigned batch =
                minutes ? std::max(32u, pool.jobs() * 8) : count;
            const std::vector<CaseResult> results =
                pool.map<CaseResult>(batch, [&](size_t i) {
                    CaseResult r;
                    r.seed = nextSeed + i;
                    try {
                        const GenProgram p = generateProgram(r.seed);
                        r.name = p.name;
                        r.recipe = p.recipe;
                        r.failures = checkProgram(p, opts).failures;
                    } catch (const std::exception &e) {
                        r.failures.push_back({"panic", e.what()});
                    }
                    return r;
                });
            for (const CaseResult &r : results)
                if (!r.failures.empty())
                    failures.push_back(r);
            total += batch;
            nextSeed += batch;
            more = minutes != 0 &&
                   std::chrono::steady_clock::now() < deadline;
        }

        // Shrink and persist every failure serially (shrinking
        // re-runs the simulator many times; determinism over speed).
        for (const CaseResult &r : failures) {
            std::filesystem::create_directories(outDir);
            const GenProgram p = generateProgram(r.seed);
            const std::string phase = r.failures.front().phase;
            for (const FuzzFailure &f : r.failures)
                std::printf("FAIL %s (recipe %s, seed %llu) %s: %s\n",
                            r.name.c_str(), r.recipe.c_str(),
                            static_cast<unsigned long long>(r.seed),
                            f.phase.c_str(), f.detail.c_str());
            const std::string repro =
                writeRepro(p, phase, opts, outDir);
            std::printf("  repro: %s\n", repro.c_str());
        }

        if (!failures.empty()) {
            std::printf("xfuzz: %zu of %u FAILED (repros in %s)\n",
                        failures.size(), total, outDir.c_str());
            return 2;
        }
        std::printf("xfuzz: all %u passed\n", total);
        return 0;
    } catch (const PanicError &error) {
        std::fprintf(stderr, "%s\n", error.what());
        return 4;
    } catch (const FatalError &error) {
        std::fprintf(stderr, "%s\n", error.what());
        return 1;
    }
}
