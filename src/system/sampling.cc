#include "system/sampling.h"

#include <cmath>

#include "common/json.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "common/sim_error.h"

namespace xloops {

SampledSimulation::SampledSimulation(const SysConfig &config,
                                     const SampleOptions &options)
    : cfg(config), opts(options), exec(mem), gpp(makeGppModel(config.gpp))
{
    if (opts.window == 0)
        fatal("sample window must be at least one instruction");
    if (opts.warmup == ~u64{0})
        opts.warmup = opts.window;
    if (opts.period < opts.warmup + opts.window) {
        fatal(strf("sample period ", opts.period,
                   " is smaller than warmup ", opts.warmup, " + window ",
                   opts.window));
    }
}

void
SampledSimulation::loadProgram(const Program &prog)
{
    prog.loadInto(mem);
}

void
SampledSimulation::restore(const std::string &checkpointText,
                           const Program &prog)
{
    const JsonValue v = jsonParse(checkpointText);
    if (v.at("schema").asString() != "xloops-ckpt-1")
        fatal("not an xloops-ckpt-1 checkpoint");
    if (parseU64(v.at("program_hash").asString()) != prog.hash())
        fatal("checkpoint was taken against a different program image");

    const std::vector<u64> regs = readU64Array(v.at("regs"));
    if (regs.size() != numArchRegs)
        fatal("checkpoint register file size mismatch");
    for (unsigned r = 0; r < numArchRegs; r++)
        exec.regFile().regs[r] = static_cast<u32>(regs[r]);
    mem.loadState(v.at("mem"));
    cur.pc = static_cast<Addr>(v.at("pc").asU64());
    cur.dynInsts = v.at("inst_count").asU64();
    cur.halted = false;

    // The restored memory image may carry text bytes that disagree
    // with anything this executor decoded earlier (self-referential
    // programs, a different run of the same binary): every cached
    // superblock is stale by definition.
    exec.invalidate();
}

u64
SampledSimulation::stepDetailed(const DecodedProgram &dec, u64 budget)
{
    RegFile &regs = exec.regFile();
    u64 done = 0;
    while (done < budget && !cur.halted) {
        const Instruction &inst = dec.fetch(cur.pc);
        const StepResult step =
            ExecCore::step(inst, cur.pc, regs, mem, cur.dynInsts);
        gpp->retire(inst, cur.pc, step);
        cur.dynInsts++;
        done++;
        if (inst.isXloop())
            exec.stats().add(Stat::XloopInsts);
        if (inst.isXi())
            exec.stats().add(Stat::XiInsts);
        if (step.halted) {
            cur.halted = true;
            break;
        }
        cur.pc = step.nextPc;
    }
    return done;
}

SampleResult
SampledSimulation::run(const Program &prog)
{
    SampleResult r;
    if (!cur.halted && cur.pc == 0)
        cur.pc = prog.entry;
    const DecodedProgram &dec = prog.decoded();
    const u64 startInsts = cur.dynInsts;

    // One random draw fixes the detailed region's offset within every
    // period — systematic sampling with a random phase. The stream is
    // named so other consumers of the seed can never perturb it.
    RngPool pool(opts.seed);
    const u64 slack = opts.period - opts.warmup - opts.window;
    r.phase = slack == 0 ? 0 : pool.stream("sample.select").next() % (slack + 1);

    while (!cur.halted) {
        if (cur.dynInsts - startInsts >= opts.maxInsts) {
            MachineSnapshot snap;
            snap.context = "sampled-run instruction-limit valve";
            snap.gppPc = cur.pc;
            snap.gppInsts = cur.dynInsts;
            throw SimError(SimErrorKind::InstLimit,
                           strf("sampled execution exceeded ", opts.maxInsts,
                                " instructions without halting"),
                           snap);
        }
        const u64 pos = cur.dynInsts % opts.period;
        if (pos < r.phase) {
            // Functional fast-forward to the detailed region.
            r.ffInsts += exec.execute(prog, cur, r.phase - pos);
        } else if (pos == r.phase) {
            // Detailed warming: timed through the model (to re-warm
            // caches and pipeline state) but excluded from the CPI
            // observations.
            r.warmupInsts += stepDetailed(dec, opts.warmup);
            if (cur.halted)
                break;
            const Cycle before = gpp->now();
            const u64 done = stepDetailed(dec, opts.window);
            if (done == opts.window) {
                const Cycle cycles = gpp->now() - before;
                r.measuredInsts += done;
                r.measuredCycles += cycles;
                r.windowCpi.push_back(static_cast<double>(cycles) /
                                      static_cast<double>(done));
                r.windows++;
            }
            // A partial window (program halted inside it) is
            // discarded: it would bias the estimate toward the exit
            // path's CPI.
        } else {
            // Past the detailed region (possible after a checkpoint
            // restore landing mid-period): fast-forward to the next
            // period boundary.
            r.ffInsts += exec.execute(prog, cur, opts.period - pos);
        }
    }

    r.halted = cur.halted;
    r.totalInsts = cur.dynInsts;
    exec.stats().set(Stat::DynInsts, cur.dynInsts);

    if (r.windows > 0) {
        double sum = 0.0;
        for (const double c : r.windowCpi)
            sum += c;
        r.cpiEst = sum / static_cast<double>(r.windows);
        if (r.windows > 1) {
            double sq = 0.0;
            for (const double c : r.windowCpi)
                sq += (c - r.cpiEst) * (c - r.cpiEst);
            r.cpiStddev =
                std::sqrt(sq / static_cast<double>(r.windows - 1));
            r.cpiHalfWidth = opts.z * r.cpiStddev /
                             std::sqrt(static_cast<double>(r.windows));
        } else {
            // A single observation carries no spread information: the
            // honest interval is the whole estimate.
            r.cpiHalfWidth = r.cpiEst;
        }
        // Resolution floor: detailed warming bounds how much bias a
        // window can carry; claiming a tighter interval than this
        // would be false precision (see EXPERIMENTS.md).
        const double floor = opts.minRelHalfWidth * r.cpiEst;
        if (r.cpiHalfWidth < floor)
            r.cpiHalfWidth = floor;
        r.estCycles = static_cast<Cycle>(
            std::llround(r.cpiEst * static_cast<double>(r.totalInsts)));
    }
    return r;
}

void
SampledSimulation::writeJson(JsonWriter &w, const SampleResult &r) const
{
    w.beginObject();
    w.field("schema", "xloops-sample-1");
    w.field("config", cfg.name);
    w.field("seed", opts.seed);
    w.field("sample_period", opts.period);
    w.field("sample_window", opts.window);
    w.field("sample_warmup", opts.warmup);
    w.field("phase", r.phase);
    w.field("total_insts", r.totalInsts);
    w.field("ff_insts", r.ffInsts);
    w.field("warmup_insts", r.warmupInsts);
    w.field("measured_insts", r.measuredInsts);
    w.field("measured_cycles", static_cast<u64>(r.measuredCycles));
    w.field("windows", r.windows);
    w.field("cpi_est", r.cpiEst);
    w.field("cpi_ci_half", r.cpiHalfWidth);
    w.field("cpi_stddev", r.cpiStddev);
    w.field("ci_z", opts.z);
    w.field("min_rel_ci_half", opts.minRelHalfWidth);
    w.field("est_cycles", static_cast<u64>(r.estCycles));
    w.field("halted", r.halted);
    w.key("window_cpi").beginArray();
    for (const double c : r.windowCpi)
        w.value(c);
    w.endArray();
    w.endObject();
}

} // namespace xloops
