#include "system/capsule.h"

#include <algorithm>
#include <iostream>
#include <sstream>
#include <vector>

#include "common/json.h"
#include "common/log.h"
#include "common/serialize.h"
#include "common/sim_error.h"
#include "system/system.h"

namespace xloops {

namespace {

constexpr const char *capsuleSchema = "xloops-capsule-1";

void
writeDivergence(JsonWriter &w, const DivergenceInfo &d)
{
    w.beginObject();
    w.field("site", d.site);
    w.field("pc", strf("0x", std::hex, d.pc));
    w.field("inst_index", d.instIndex);
    w.field("iteration", static_cast<i64>(d.iteration));
    w.field("reg_mismatch", d.regMismatch);
    w.field("reg", unsigned{d.reg});
    w.field("main_value", u64{d.mainValue});
    w.field("shadow_value", u64{d.shadowValue});
    w.field("mem_mismatch", d.memMismatch);
    w.field("mem_addr", strf("0x", std::hex, d.memAddr));
    w.field("main_byte", unsigned{d.mainByte});
    w.field("shadow_byte", unsigned{d.shadowByte});
    w.endObject();
}

DivergenceInfo
readDivergence(const JsonValue &v)
{
    DivergenceInfo d;
    d.site = v.at("site").asString();
    d.pc = static_cast<Addr>(parseU64(v.at("pc").asString()));
    d.instIndex = v.at("inst_index").asU64();
    d.iteration = v.at("iteration").asI64();
    d.regMismatch = v.at("reg_mismatch").asBool();
    d.reg = static_cast<RegId>(v.at("reg").asU64());
    d.mainValue = static_cast<u32>(v.at("main_value").asU64());
    d.shadowValue = static_cast<u32>(v.at("shadow_value").asU64());
    d.memMismatch = v.at("mem_mismatch").asBool();
    d.memAddr = static_cast<Addr>(parseU64(v.at("mem_addr").asString()));
    d.mainByte = static_cast<u8>(v.at("main_byte").asU64());
    d.shadowByte = static_cast<u8>(v.at("shadow_byte").asU64());
    return d;
}

/** One re-execution's result, normalized for comparison. */
struct ReplayOutcome
{
    bool errored = false;
    std::string kind;           ///< simErrorKindName when errored
    bool isDivergence = false;
    DivergenceInfo div;
    u64 instsAtError = 0;
};

} // namespace

std::string
writeCapsule(const std::string &path, const RunSpec &spec,
             const CapsuleContext &ctx, const SimError &error,
             const std::string &workload, const std::string &flightJson)
{
    if (!ctx.valid)
        fatal("cannot write a capsule: run context was not captured");

    std::ostringstream out;
    JsonWriter w(out, /*pretty=*/true);
    w.beginObject();
    w.field("schema", capsuleSchema);
    w.field("config", spec.config);
    w.field("mode", spec.mode);
    w.field("workload", spec.kernel.empty() ? workload : spec.kernel);
    w.field("max_insts", spec.maxInsts);
    w.field("lockstep", spec.lockstep);

    // Without a seed the rates select nothing (see sysConfig()), so
    // they are recorded as 0.
    const bool seeded = spec.injectSeed != 0;
    w.key("faults").beginObject();
    w.field("seed", spec.injectSeed);
    w.field("rate_bits", doubleBits(seeded ? spec.injectRate : 0.0));
    w.field("arch_rate_bits",
            doubleBits(seeded ? spec.injectArchRate : 0.0));
    w.field("have_watchdog", spec.haveWatchdog);
    w.field("watchdog_cycles", spec.watchdogCycles);
    w.endObject();

    w.key("error").beginObject();
    w.field("kind", simErrorKindName(error.kind()));
    w.field("exit_code", error.exitCode());
    w.field("message", std::string(error.what()));
    w.field("inst_count", error.snapshot().gppInsts);
    if (const auto *de = dynamic_cast<const DivergenceError *>(&error)) {
        w.key("divergence");
        writeDivergence(w, de->divergence());
    }
    w.endObject();

    w.field("program_hash", strf("0x", std::hex, ctx.program.hash()));
    w.key("program").beginObject();
    ctx.program.saveState(w);
    w.endObject();

    // The complete initial image (program text/data PLUS kernel input
    // data written after load): a Program alone cannot reproduce it.
    w.key("initial_mem").beginObject();
    ctx.initialMem.saveState(w);
    w.endObject();

    w.field("checkpoint_inst", ctx.lastCheckpointInst);
    if (!ctx.lastCheckpoint.empty()) {
        w.key("checkpoint");
        writeJsonValue(w, jsonParse(ctx.lastCheckpoint));
    }

    // Service context: what the fleet was doing when this job died.
    if (!flightJson.empty()) {
        w.key("flight");
        writeJsonValue(w, jsonParse(flightJson));
    }

    w.endObject();
    out << "\n";
    const std::string text = out.str();
    atomicWriteFile(path, text);
    return text;
}

int
replayCapsule(const std::string &path)
{
    std::ostream &out = std::cout;

    const JsonValue v = jsonParse(readFile(path));

    if (v.at("schema").asString() != capsuleSchema)
        fatal(strf("'", path, "' is not an ", capsuleSchema,
                   " capsule"));

    // ---- Rebuild the run exactly as the capsule describes it. ----
    RunSpec spec;
    spec.config = v.at("config").asString();
    spec.mode = v.at("mode").asString();
    spec.maxInsts = v.at("max_insts").asU64();
    spec.lockstep = v.at("lockstep").asBool();
    const JsonValue &fv = v.at("faults");
    spec.injectSeed = fv.at("seed").asU64();
    spec.injectRate = doubleFromBits(fv.at("rate_bits").asString());
    spec.injectArchRate =
        doubleFromBits(fv.at("arch_rate_bits").asString());
    spec.haveWatchdog = fv.at("have_watchdog").asBool();
    spec.watchdogCycles = fv.at("watchdog_cycles").asU64();
    const SysConfig cfg = spec.sysConfig();
    const ExecMode mode = execModeByName(spec.mode);

    const Program prog = Program::fromJson(v.at("program"));
    if (prog.hash() != parseU64(v.at("program_hash").asString()))
        fatal("capsule program image does not match its recorded hash");

    const JsonValue &ev = v.at("error");
    const std::string expectedKind = ev.at("kind").asString();
    const bool expectDivergence = ev.has("divergence");
    DivergenceInfo expectedDiv;
    if (expectDivergence)
        expectedDiv = readDivergence(ev.at("divergence"));
    const u64 errorInsts = ev.at("inst_count").asU64();

    out << "replay: capsule " << path << " (config " << spec.config
        << ", mode " << spec.mode << ", workload "
        << v.at("workload").asString() << ")\n";
    out << "replay: recorded error: " << expectedKind << " after "
        << errorInsts << " insts\n";
    if (expectDivergence)
        out << "replay: recorded divergence: " << expectedDiv.render()
            << "\n";

    const auto runOnce = [&](const RunOptions &opts) {
        ReplayOutcome o;
        XloopsSystem sys(cfg);
        sys.memory().loadState(v.at("initial_mem"));
        try {
            sys.run(prog, mode, spec.maxInsts, opts);
        } catch (const DivergenceError &e) {
            o.errored = true;
            o.kind = simErrorKindName(e.kind());
            o.isDivergence = true;
            o.div = e.divergence();
            o.instsAtError = e.snapshot().gppInsts;
        } catch (const SimError &e) {
            o.errored = true;
            o.kind = simErrorKindName(e.kind());
            o.instsAtError = e.snapshot().gppInsts;
        }
        return o;
    };

    const auto matches = [&](const ReplayOutcome &o) {
        if (!o.errored || o.kind != expectedKind)
            return false;
        if (expectDivergence)
            return o.isDivergence && o.div.sameAs(expectedDiv);
        return true;
    };

    // ---- Phase 1: full re-execution, collecting checkpoints for the
    // bisection phase in memory along the way. ----
    std::vector<std::pair<u64, std::string>> ckpts;
    RunOptions opts;
    opts.lockstep = spec.lockstep;
    opts.checkpointEvery = std::max<u64>(1, errorInsts / 8);
    opts.checkpointSink = [&](u64 instCount, const std::string &json) {
        ckpts.emplace_back(instCount, json);
    };
    const ReplayOutcome full = runOnce(opts);

    if (!full.errored) {
        out << "replay: FAILED to reproduce: run completed cleanly\n";
        return 2;
    }
    out << "replay: reproduced error: " << full.kind << " after "
        << full.instsAtError << " insts\n";
    if (full.isDivergence)
        out << "replay: reproduced divergence: " << full.div.render()
            << "\n";
    const bool identical = matches(full);
    out << "replay: identical to capsule: " << (identical ? "yes" : "NO")
        << "\n";
    if (!identical)
        return 2;

    // ---- Phase 2: re-verify from the capsule's embedded checkpoint
    // (the nearest one taken before the original failure). ----
    if (v.has("checkpoint")) {
        std::ostringstream ck;
        JsonWriter cw(ck, /*pretty=*/true);
        writeJsonValue(cw, v.at("checkpoint"));
        RunOptions ropts;
        ropts.lockstep = spec.lockstep;
        ropts.restoreText = ck.str();
        const ReplayOutcome fromCkpt = runOnce(ropts);
        const bool ok = matches(fromCkpt);
        out << "replay: from embedded checkpoint (inst "
            << v.at("checkpoint_inst").asU64()
            << "): " << (ok ? "identical" : "NOT identical") << "\n";
        if (!ok)
            return 2;
    }

    // ---- Phase 3: bisect over the replay's own checkpoints for the
    // latest start point that still reproduces the identical error,
    // bounding the first divergent iteration to the tightest
    // [checkpoint, failure] instruction window. ----
    // Every checkpoint precedes the failure, so the divergence should
    // reproduce from all of them; bisection confirms that and names
    // the latest verified start point (a non-reproducing checkpoint
    // would itself be a determinism bug worth knowing about).
    if (!ckpts.empty()) {
        size_t lo = 0, hi = ckpts.size() - 1;
        size_t best = ckpts.size();  // none verified yet
        unsigned tested = 0;
        while (lo <= hi) {
            const size_t mid = lo + (hi - lo) / 2;
            RunOptions bopts;
            bopts.lockstep = spec.lockstep;
            bopts.restoreText = ckpts[mid].second;
            tested++;
            if (matches(runOnce(bopts))) {
                best = mid;
                if (mid + 1 > hi)
                    break;
                lo = mid + 1;
            } else {
                if (mid == 0)
                    break;
                hi = mid - 1;
            }
        }
        if (best != ckpts.size()) {
            out << "replay: bisection: divergence reproduces from inst "
                << ckpts[best].first << "; first divergent iteration "
                << "localized to insts (" << ckpts[best].first << ", "
                << full.instsAtError << "] (" << tested
                << " checkpoints tested)\n";
            if (full.isDivergence)
                out << "replay: first divergent iteration "
                    << full.div.iteration << " of xloop at pc 0x"
                    << std::hex << full.div.pc << std::dec << "\n";
        } else {
            out << "replay: bisection: no collected checkpoint "
                << "reproduced the error (" << tested << " tested)\n";
            return 2;
        }
    }

    out << "replay: OK\n";
    return 0;
}

} // namespace xloops
