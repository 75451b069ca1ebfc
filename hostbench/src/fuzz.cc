/**
 * @file
 * The fuzz workload: checkProgram(generateProgram(s)) with the
 * default FuzzOptions (io+x, lockstep, 5% timing faults, fission
 * candidates) on 2 workers, in batches the way the fuzz farm runs.
 *
 * Programs are tiny (a few hundred simulated instructions), so the
 * fixed costs of a run dominate: generation, parsing, analysis,
 * compiling and assembling, system builds and lockstep. It is the
 * only workload where the frontend, compiler and system-build layers
 * carry real weight, and the only one that reaches the loop-fission
 * prepass. One operation is one program; its latency is generate +
 * check. The oracle is the property itself: analyzer verdicts equal
 * the by-construction truth and every run's arrays agree.
 */

#include <map>
#include <memory>
#include <mutex>
#include <optional>

#include "asm/assembler.h"
#include "bench.h"
#include "common/pool.h"
#include "common/rng.h"
#include "common/sim_error.h"
#include "compiler/fission.h"
#include "frontend/frontend.h"
#include "fuzz/gen.h"
#include "fuzz/harness.h"
#include "system/config.h"
#include "system/system.h"

namespace hostbench {

using namespace xloops;

namespace {

constexpr unsigned fuzzWorkers = 2;
constexpr unsigned fuzzBatch = 32;  ///< the fuzz farm's batch for 2 jobs
constexpr double rateWindowSeconds = 0.25;
// Memory is read after a fixed number of programs, before the run's
// own bookkeeping grows with how many it got through.
constexpr size_t rssMarkPrograms = 4096;

u64
programSeed(u64 seed, u64 i)
{
    return (seed << 32) + i;
}

/** Arrays of one replica run (empty when the run failed). */
struct ReplicaRun
{
    bool ok = false;
    std::map<std::string, std::vector<u32>> arrays;
};

ReplicaRun
replicaRun(const Program &prog, const std::vector<ArrayDeclInfo> &arrays,
           ExecMode mode, const FuzzOptions &opts, u64 faultSeed,
           u64 request, Spans &spans)
{
    ReplicaRun out;
    SysConfig cfg = configs::byName(opts.configName);
    if (mode == ExecMode::Specialized && opts.injectRate > 0.0)
        cfg.lpsu.faults = FaultConfig::uniform(faultSeed, opts.injectRate);

    Span buildSpan(spans, "system.build", request);
    XloopsSystem sys(cfg);
    sys.loadProgram(prog);
    buildSpan.close();

    const std::string m = execModeName(mode);
    RunOptions ro;
    ro.lockstep = opts.lockstep;
    Span runSpan(spans, "system.lockstep_run." + m, request);
    SysResult res;
    try {
        res = sys.run(prog, mode, opts.maxInsts, ro);
    } catch (const SimError &) {
        return out;
    } catch (const FatalError &) {
        return out;
    }
    runSpan.close(static_cast<double>(res.gppInsts + res.laneInsts),
                  simCounts(res));

    Span readSpan(spans, "fuzz.compare", request);
    for (const ArrayDeclInfo &a : arrays) {
        std::vector<u32> words;
        const Addr base = prog.symbol(a.name);
        for (unsigned i = 0; i < a.words; i++)
            words.push_back(sys.memory().readWord(base + 4 * i));
        out.arrays.emplace(a.name, std::move(words));
    }
    out.ok = true;
    return out;
}

bool
sameArrays(const ReplicaRun &ref, const ReplicaRun &got)
{
    for (const auto &[name, words] : ref.arrays) {
        const auto it = got.arrays.find(name);
        if (it == got.arrays.end())
            continue;
        for (size_t i = 0; i < words.size() && i < it->second.size(); i++)
            if (words[i] != it->second[i])
                return false;
    }
    return true;
}

bool
sameTruths(const std::vector<LoopReport> &reports,
           const std::vector<std::string> &expected)
{
    if (reports.size() != expected.size())
        return false;
    for (size_t i = 0; i < reports.size(); i++)
        if (reports[i].selection != expected[i])
            return false;
    return true;
}

/**
 * checkProgram's phases, from public functions, one layer span each:
 * generate, parse, analyze (truth), compile, then lockstep runs
 * (build + run + array read) for T and S, and again for the fission
 * build of candidates. Returns whether the property held.
 */
bool
tracedPhases(u64 seed, u64 request, Spans &spans)
{
    const FuzzOptions opts;
    Span genSpan(spans, "fuzz.generate", request);
    const GenProgram program = generateProgram(seed);
    genSpan.close();
    const u64 faultSeed = mix64(program.seed ? program.seed : 0x5eed);

    Span parseSpan(spans, "frontend.parse", request);
    FrontendModule parsed;
    try {
        parsed = parseModule(program.source);
    } catch (const FrontendError &) {
        return false;
    }
    parseSpan.close();

    Span analyzeSpan(spans, "frontend.analyze", request);
    const bool truthOk =
        sameTruths(reportLoops(parsed.topLevel), program.truths);
    analyzeSpan.close();
    if (!truthOk)
        return false;

    // compileModule's steps, so that assembling gets its own span.
    const auto compile = [&](bool fission) {
        CompiledModule cm;
        Span compileSpan(spans, "compiler.compile", request);
        cm.module = parsed;
        if (fission)
            applyFission(cm.module.topLevel);
        cm.loops = reportLoops(cm.module.topLevel);
        CodeGen cg;
        cg.lsrEnabled(FrontendOptions{}.lsr);
        for (const ArrayDeclInfo &a : cm.module.arrays)
            cg.declareArray(a.name, a.words, a.init);
        cm.assembly = cg.compile(cm.module.topLevel);
        compileSpan.close();
        Span asmSpan(spans, "asm.assemble", request);
        cm.program = assemble(cm.assembly);
        cm.program.decoded();
        asmSpan.close();
        return cm;
    };
    CompiledModule cm;
    try {
        cm = compile(false);
    } catch (const FatalError &) {
        return false;
    }
    const ReplicaRun trad =
        replicaRun(cm.program, cm.module.arrays, ExecMode::Traditional,
                   opts, faultSeed, request, spans);
    const ReplicaRun spec =
        replicaRun(cm.program, cm.module.arrays, ExecMode::Specialized,
                   opts, faultSeed, request, spans);
    bool ok = trad.ok && spec.ok && sameArrays(trad, spec);

    if (program.useFission && opts.checkFission) {
        CompiledModule fm;
        try {
            fm = compile(true);
        } catch (const FatalError &) {
            return false;
        }
        ok = ok && sameTruths(fm.loops, program.fissionTruths);
        const ReplicaRun ftrad =
            replicaRun(fm.program, fm.module.arrays, ExecMode::Traditional,
                       opts, faultSeed, request, spans);
        const ReplicaRun fspec =
            replicaRun(fm.program, fm.module.arrays, ExecMode::Specialized,
                       opts, faultSeed, request, spans);
        ok = ok && ftrad.ok && fspec.ok && sameArrays(trad, ftrad) &&
             sameArrays(ftrad, fspec);
    }
    return ok;
}

bool
tracedProgram(u64 seed, u64 request, Spans &spans)
{
    Span s(spans, "program", request, false);
    return tracedPhases(seed, request, spans);
}

} // namespace

void
runFuzzWorkload(const Args &args, Outcome &out)
{
    // Set-up: the worker pool, the run's configuration and the
    // generator's recipe table.
    const FuzzOptions opts;
    std::optional<WorkerPool> pool;
    SysConfig config;
    const double setupS = medianSetUpSeconds([&] {
        pool.emplace(fuzzWorkers);
        config = configs::byName(opts.configName);
        recipeNames();
    });

    const double untracedSeconds =
        args.trace ? args.seconds / 2 : args.seconds;
    std::vector<double> latencyMs, batchCpuMs;
    std::vector<u64> doneNs;
    std::vector<bool> verdicts;  ///< per program index
    double rssMb = 0;
    const u64 start = nowNs();
    do {
        const u64 first = verdicts.size();
        struct Checked
        {
            bool ok = false;
            std::string why;
            double ms = 0;
            u64 doneNs = 0;
        };
        const u64 cpu0 = cpuNs();
        const std::vector<Checked> batch =
            pool->map<Checked>(fuzzBatch, [&](size_t i) {
                const u64 t0 = nowNs();
                const GenProgram p = generateProgram(
                    programSeed(args.seed, first + i));
                const FuzzVerdict v = checkProgram(p, opts);
                Checked c;
                c.doneNs = nowNs();
                c.ms = static_cast<double>(c.doneNs - t0) * 1e-6;
                c.ok = v.ok();
                if (!c.ok)
                    c.why = p.name + ": " + v.firstPhase() + ": " +
                            v.failures.front().detail;
                return c;
            });
        batchCpuMs.push_back(static_cast<double>(cpuNs() - cpu0) * 1e-6 /
                             fuzzBatch);
        for (const Checked &c : batch) {
            verdicts.push_back(c.ok);
            latencyMs.push_back(c.ms);
            doneNs.push_back(c.doneNs);
            out.attempted++;
            if (!c.ok)
                out.fail(c.why);
        }
        if (verdicts.size() == rssMarkPrograms)
            rssMb = peakRssMb();
    } while (secondsSince(start) < untracedSeconds);
    const double untracedWall = secondsSince(start);

    if (!args.trace) {
        out.add("ops_per_s",
                medianWindowRate(doneNs, start, nowNs(), rateWindowSeconds),
                "1/s");
        out.add("cpu_ms_per_op", quantile(batchCpuMs, 0.5), "ms");
        out.add("latency_p50_ms", quantile(latencyMs, 0.5), "ms");
        out.add("latency_p90_ms", quantile(latencyMs, 0.9), "ms");
        out.add("setup_s", setupS, "s");
        out.add("peak_rss_mb", rssMb ? rssMb : peakRssMb(), "MB");
        return;
    }

    // The traced replica re-checks the same programs, in order, and
    // must reach the same verdict on each.
    Spans spans;
    u64 traced = 0;
    const u64 tStart = nowNs();
    while (traced < verdicts.size() &&
           secondsSince(tStart) < args.seconds - untracedWall) {
        const size_t n =
            std::min<size_t>(fuzzBatch, verdicts.size() - traced);
        const std::vector<char> oks = pool->map<char>(n, [&](size_t i) {
            return tracedProgram(programSeed(args.seed, traced + i),
                                 traced + i + 1, spans)
                       ? 1
                       : 0;
        });
        for (size_t i = 0; i < n; i++) {
            out.attempted++;
            if ((oks[i] != 0) != verdicts[traced + i])
                out.fail("program " +
                         std::to_string(programSeed(args.seed, traced + i)) +
                         ": traced verdict differs from checkProgram");
        }
        traced += n;
    }
    const u64 tEnd = nowNs();

    for (const std::string mode : {"T", "S"})
        out.add("system.lockstep_run_ns_per_inst." + mode,
                spans.total("system.lockstep_run." + mode).nsPerWork(),
                "ns/inst");
    for (const std::string name :
         {"system.build", "fuzz.generate", "frontend.parse",
          "frontend.analyze", "compiler.compile", "asm.assemble"})
        out.add(name + "_us", spans.total(name).meanUs(), "us");
    out.add("common.pool_util",
            spans.total("program").ns /
                (fuzzWorkers * static_cast<double>(tEnd - tStart)),
            "fraction");
    reportTraced(args, spans, static_cast<double>(traced), fuzzWorkers,
                 tStart, tEnd,
                 untracedWall * 1e3 / static_cast<double>(verdicts.size()),
                 out);
}

} // namespace hostbench
