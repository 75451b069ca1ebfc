/**
 * @file
 * The two Table II sweep workloads.
 *
 *   sweep-spec  25 kernels x {io+x, ooo/2+x, ooo/4+x} x {S, A}
 *   sweep-trad  25 kernels x {io, ooo/2, ooo/4} x {T, GP-ISA binary}
 *
 * 150 cells each, together exactly Table II's cell set. The LPSU does
 * most of the work in sweep-spec and none in sweep-trad, so a change
 * to the LPSU should move the first and leave the second alone, and a
 * change to the GPP timing models the reverse. One operation is one
 * cell; one request is one runSweep on 2 workers over 10 cells; one
 * pass is all 150 cells, in an order the seed permutes.
 */

#include <algorithm>
#include <cmath>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>

#include "asm/assembler.h"
#include "bench.h"
#include "common/json.h"
#include "common/loop_profile.h"
#include "common/pool.h"
#include "cpu/threaded.h"
#include "energy/energy.h"
#include "kernels/kernel.h"
#include "system/config.h"
#include "system/report.h"
#include "system/sweep.h"

namespace hostbench {

using namespace xloops;

std::vector<SweepCell>
sweepCells(bool specialized)
{
    std::vector<SweepCell> cells;
    for (const std::string &k : tableIIKernelNames()) {
        if (specialized) {
            for (const SysConfig &cfg :
                 {configs::ioX(), configs::ooo2X(), configs::ooo4X()})
                for (const ExecMode mode :
                     {ExecMode::Specialized, ExecMode::Adaptive})
                    cells.push_back({k, cfg, mode, false});
        } else {
            for (const SysConfig &cfg :
                 {configs::io(), configs::ooo2(), configs::ooo4()})
                for (const bool gp : {false, true})
                    cells.push_back({k, cfg, ExecMode::Traditional, gp});
        }
    }
    return cells;
}

namespace {

constexpr unsigned sweepWorkers = 2;

constexpr size_t cellsPerRequest = 10;

/**
 * One pass as requests: the 150 cells in a seeded order, cut into 15
 * runSweep calls of 10 cells. A request's latency is then a sum over
 * a random draw of cells, a continuous distribution whose percentiles
 * hold still; per-kernel requests would put them between 25 fixed
 * clusters, and a whole pass per request would leave a tail that is
 * the maximum of a handful of passes.
 */
std::vector<std::vector<SweepCell>>
passRequests(const std::vector<SweepCell> &base, Rng &rng)
{
    std::vector<SweepCell> order = base;
    shuffle(order, rng);
    std::vector<std::vector<SweepCell>> requests;
    for (size_t i = 0; i < order.size(); i += cellsPerRequest)
        requests.emplace_back(
            order.begin() + i,
            order.begin() + std::min(order.size(), i + cellsPerRequest));
    return requests;
}

/** "io" / "ooo2" / "ooo4": the GPP a config is built on. */
std::string
hostTag(const std::string &configName)
{
    if (configName.rfind("ooo/2", 0) == 0)
        return "ooo2";
    if (configName.rfind("ooo/4", 0) == 0)
        return "ooo4";
    return "io";
}

std::string
keyOf(const SweepCell &c)
{
    return cellKey(c.kernel, c.config.name, execModeName(c.mode),
                   c.gpBinary);
}

/** What the checks need of one cell, from either path. */
struct CellResult
{
    bool passed = false;
    std::string error;
    u64 cycles = 0;
    u64 gppInsts = 0;
    u64 laneInsts = 0;
    u64 xlDynInsts = 0;
    std::string digest;
};

CellResult
fromSweep(const SweepCellResult &r)
{
    return {r.passed,      r.error,
            r.cycles,      r.gppInsts,
            r.laneInsts,   r.xlDynInsts,
            resultDigest(r.cycles, r.gppInsts, r.laneInsts, r.statsJson)};
}

/**
 * Table II's T/S/A ratios and base cycles from the committed
 * bench/BENCH_table2.json, rows keyed by kernel.
 */
class Table2
{
  public:
    explicit Table2(const std::string &path)
    {
        std::ifstream in(path);
        if (!in)
            throw std::runtime_error("cannot read " + path);
        std::stringstream ss;
        ss << in.rdbuf();
        const JsonValue doc = jsonParse(ss.str());
        for (const JsonValue &row : doc.at("rows").array()) {
            auto &m = rows[row.at("label").asString()];
            for (const auto &[k, v] : row.members())
                if (k != "label")
                    m[k] = v.asDouble();
        }
    }

    /** Committed value @p field of @p kernel's row (NaN if absent). */
    double
    get(const std::string &kernel, const std::string &field) const
    {
        const auto r = rows.find(kernel);
        if (r == rows.end())
            return std::nan("");
        const auto f = r->second.find(field);
        return f == r->second.end() ? std::nan("") : f->second;
    }

  private:
    std::map<std::string, std::map<std::string, double>> rows;
};

bool
sameRatio(double got, double committed)
{
    // BENCH_table2.json keeps 10 significant digits.
    return std::isfinite(committed) &&
           std::fabs(got - committed) <= 1e-8 * std::fabs(committed);
}

/** Table II field prefix of a host tag. */
std::string
tableHost(const std::string &tag)
{
    return tag == "io" ? "io" : tag == "ooo2" ? "o2" : "o4";
}

/**
 * Check one pass: every cell validated, its digest equals the
 * reference, and the Table II ratios recomputed from its cycles equal
 * the committed ones.
 */
void
checkPass(const std::vector<SweepCell> &cells,
          const std::vector<CellResult> &results, const Reference &ref,
          const Table2 &table, Outcome &out)
{
    std::map<std::string, const CellResult *> byKey;
    for (size_t i = 0; i < cells.size(); i++)
        byKey[keyOf(cells[i])] = &results[i];

    for (size_t i = 0; i < cells.size(); i++) {
        const SweepCell &c = cells[i];
        const CellResult &r = results[i];
        const std::string key = keyOf(c);
        out.attempted++;
        if (!r.passed) {
            out.fail(key + ": validation failed: " + r.error);
            continue;
        }
        if (!ref.matches(key, r.digest)) {
            out.fail(key + ": digest " + r.digest + " != reference " +
                     ref.find(key));
            continue;
        }
        const std::string host = tableHost(hostTag(c.config.name));
        const double base = table.get(c.kernel, host + "_base_cycles");
        double got = 0, want = 0;
        std::string what;
        if (c.gpBinary) {
            got = static_cast<double>(r.cycles);
            want = base;
            what = host + "_base_cycles";
        } else {
            what = host + "_" + execModeName(c.mode);
            got = base / static_cast<double>(r.cycles);
            want = table.get(c.kernel, what);
        }
        if (!sameRatio(got, want)) {
            out.fail(key + ": Table II " + what + " " + std::to_string(got) +
                     " != committed " + std::to_string(want));
            continue;
        }
        // X/G: XLOOPS vs GP-ISA dynamic instructions, on io (the
        // traditional cell of each kernel carries the check).
        if (!c.gpBinary && c.mode == ExecMode::Traditional &&
            host == "io") {
            const auto gp = byKey.find(cellKey(c.kernel, c.config.name, "T",
                                               true));
            if (gp == byKey.end())
                continue;
            const double xg = static_cast<double>(r.xlDynInsts) /
                              static_cast<double>(gp->second->xlDynInsts);
            if (!sameRatio(xg, table.get(c.kernel, "xg_inst_ratio")))
                out.fail(key + ": Table II xg_inst_ratio " +
                         std::to_string(xg) + " != committed");
        }
    }
}

/**
 * runKernel's steps, from public functions, one layer span each:
 * assemble + predecode, system build + load, input setup, run, golden
 * run (setup + execute), validation, energy model, stats report.
 */
CellResult
tracedCell(const SweepCell &cell, u64 request, Spans &spans)
{
    Span cellSpan(spans, "cell", request, false);
    const Kernel &kernel = kernelByName(cell.kernel);
    const std::string mode = execModeName(cell.mode);
    const std::string host = hostTag(cell.config.name);

    Span asmSpan(spans, "asm.assemble", request);
    const Program prog = assemble(cell.gpBinary
                                      ? serializeToGpIsa(kernel.source)
                                      : kernel.source);
    prog.decoded();
    asmSpan.close();

    Span buildSpan(spans, "system.build", request);
    auto sys = std::make_unique<XloopsSystem>(cell.config);
    sys->loadProgram(prog);
    buildSpan.close();

    Span setupSpan(spans, "kernels.setup", request);
    if (kernel.setup)
        kernel.setup(sys->memory(), prog);
    setupSpan.close();

    LoopProfiler profiler;
    sys->setObserver(nullptr, &profiler);
    Span runSpan(spans, "system.run." + mode + "." + host, request);
    const SysResult res = sys->run(prog, cell.mode);
    runSpan.close(static_cast<double>(res.gppInsts + res.laneInsts),
                  simCounts(res));

    Span goldenSetup(spans, "kernels.setup", request);
    MainMemory golden;
    prog.loadInto(golden);
    if (kernel.setup)
        kernel.setup(golden, prog);
    goldenSetup.close();

    Span goldenSpan(spans, "cpu.golden", request);
    ThreadedExecutor exec(golden);
    const u64 xlDynInsts = exec.run(prog).dynInsts;
    goldenSpan.close(static_cast<double>(xlDynInsts));

    Span validateSpan(spans, "kernels.validate", request);
    bool passed = true;
    std::string error;
    if (kernel.deterministic) {
        for (const auto &[symbol, words] : kernel.outputs) {
            const Addr base = prog.symbol(symbol);
            for (unsigned i = 0; i < words && passed; i++) {
                if (sys->memory().readWord(base + 4 * i) !=
                    golden.readWord(base + 4 * i)) {
                    passed = false;
                    error = symbol + "[" + std::to_string(i) + "]";
                }
            }
        }
    }
    if (passed && kernel.check && !kernel.check(sys->memory(), prog, error))
        passed = false;
    validateSpan.close();

    Span energySpan(spans, "energy.model", request);
    const double nj =
        EnergyModel().dynamicEnergy(cell.config, res.stats).totalNj();
    energySpan.close(nj);

    Span reportSpan(spans, "system.report", request);
    std::ostringstream ss;
    writeStatsJson(ss, cell.config.name, mode, cell.kernel, res, profiler,
                   nullptr);
    const std::string stats = ss.str();
    reportSpan.close(static_cast<double>(stats.size()));
    cellSpan.close();
    return {passed,        error,      res.cycles,
            res.gppInsts,  res.laneInsts, xlDynInsts,
            resultDigest(res.cycles, res.gppInsts, res.laneInsts, stats)};
}

} // namespace

void
runSweepWorkload(const Args &args, bool specialized, Outcome &out)
{
    // Set-up: the reference digests, Table II and the cell list, with
    // every cell's kernel resolved in the registry.
    Reference ref;
    std::optional<Table2> tableII;
    std::vector<SweepCell> base;
    const double setupS = medianSetUpSeconds([&] {
        ref.load(args.reference);
        tableII.emplace(args.root + "/bench/BENCH_table2.json");
        base = sweepCells(specialized);
        for (const SweepCell &c : base)
            kernelByName(c.kernel);
    });
    const Table2 &table = *tableII;
    Rng rng(args.seed * 0x9e3779b97f4a7c15ULL + (specialized ? 1 : 2));

    SweepOptions opts;
    opts.jobs = sweepWorkers;

    // The untraced run; a traced run spends half its time here to
    // measure tracing overhead against the same code path.
    const double untracedSeconds =
        args.trace ? args.seconds / 2 : args.seconds;
    std::vector<double> passMs, passCpuMs, requestMs;
    double rssMb = 0;
    u64 cells = 0;
    const u64 start = nowNs();
    do {
        double pass = 0, passCpu = 0;
        std::vector<SweepCell> passCells;
        std::vector<CellResult> checked;
        for (const std::vector<SweepCell> &req : passRequests(base, rng)) {
            const u64 t0 = nowNs();
            const u64 cpu0 = cpuNs();
            const std::vector<SweepCellResult> results = runSweep(req, opts);
            passCpu += static_cast<double>(cpuNs() - cpu0) * 1e-6;
            requestMs.push_back(static_cast<double>(nowNs() - t0) * 1e-6);
            pass += requestMs.back();
            passCells.insert(passCells.end(), req.begin(), req.end());
            for (const SweepCellResult &r : results)
                checked.push_back(fromSweep(r));
        }
        checkPass(passCells, checked, ref, table, out);
        cells += passCells.size();
        passMs.push_back(pass);
        passCpuMs.push_back(passCpu);
        // Every pass touches the same memory: read it before the run's
        // own bookkeeping has grown with the number of passes.
        if (passMs.size() == 2)
            rssMb = peakRssMb();
    } while (secondsSince(start) < untracedSeconds);
    const double untracedWall = secondsSince(start);

    if (!args.trace) {
        // Every pass is the same 150 cells: the median pass's rate.
        out.add("ops_per_s",
                static_cast<double>(base.size()) * 1e3 /
                    quantile(passMs, 0.5),
                "1/s");
        out.add("cpu_ms_per_op",
                quantile(passCpuMs, 0.5) / static_cast<double>(base.size()),
                "ms");
        out.add("latency_p50_ms", quantile(requestMs, 0.5), "ms");
        out.add("latency_p90_ms", quantile(requestMs, 0.9), "ms");
        out.add("setup_s", setupS, "s");
        out.add("peak_rss_mb", rssMb ? rssMb : peakRssMb(), "MB");
        return;
    }

    // The traced replica: the same requests through runKernel's steps.
    Spans spans;
    const WorkerPool pool(sweepWorkers);
    u64 tracedCells = 0;
    const u64 tStart = nowNs();
    u64 request = 0;
    do {
        std::vector<SweepCell> passCells;
        std::vector<CellResult> checked;
        for (const std::vector<SweepCell> &req : passRequests(base, rng)) {
            request++;
            const std::vector<CellResult> results = pool.map<CellResult>(
                req.size(), [&](size_t i) {
                    return tracedCell(req[i], request, spans);
                });
            passCells.insert(passCells.end(), req.begin(), req.end());
            checked.insert(checked.end(), results.begin(), results.end());
        }
        checkPass(passCells, checked, ref, table, out);
        tracedCells += passCells.size();
    } while (secondsSince(tStart) < args.seconds - untracedWall);
    const u64 tEnd = nowNs();

    // LPSU time: every S and A run, per LPSU execution cycle.
    Spans::Total lpsu;
    for (const char *mode : {"T", "S", "A"}) {
        for (const char *host : {"io", "ooo2", "ooo4"}) {
            const std::string key = std::string(mode) + "." + host;
            const Spans::Total run = spans.total("system.run." + key);
            out.add("system.run_ns_per_inst." + key, run.nsPerWork(),
                    "ns/inst");
            if (mode[0] != 'T')
                lpsu += run;
        }
    }
    out.add("system.run_ns_per_lpsu_cycle",
            lpsu.sim.lpsuCycles > 0 ? lpsu.ns / lpsu.sim.lpsuCycles : 0,
            "ns/cycle");
    const Spans::Total report = spans.total("system.report");
    out.add("system.report_bytes",
            report.work / static_cast<double>(std::max<u64>(report.count, 1)),
            "bytes");
    for (const std::string name :
         {"system.build", "system.report", "asm.assemble", "kernels.setup",
          "kernels.validate", "energy.model"})
        out.add(name + "_us", spans.total(name).meanUs(), "us");
    out.add("cpu.golden_ns_per_inst", spans.total("cpu.golden").nsPerWork(),
            "ns/inst");
    // Pool utilisation: busy cell time over workers x wall.
    out.add("common.pool_util",
            spans.total("cell").ns /
                (sweepWorkers * static_cast<double>(tEnd - tStart)),
            "fraction");
    reportTraced(args, spans, static_cast<double>(tracedCells),
                 sweepWorkers, tStart, tEnd,
                 untracedWall * 1e3 / static_cast<double>(cells), out);
}

} // namespace hostbench
