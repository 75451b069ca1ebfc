/**
 * @file
 * Versioned whole-machine checkpoints (schema "xloops-ckpt-1").
 *
 * A checkpoint is the *complete* deterministic state of a run between
 * two committed instructions: architectural state (registers, every
 * touched memory page), the timing state of the active GPP model and
 * its caches, the LPSU's buffer residency / statistics / fault-
 * injector RNG streams, the adaptive profiling table, graceful-
 * degradation state (fallback PCs, storm cooldowns), the attached
 * per-loop profiler, and the running result counters. Restoring one
 * and running to completion is byte-identical (stats JSON included)
 * to the uninterrupted run — tests/test_checkpoint.cc and the
 * checkpoint-roundtrip cli test enforce exactly that.
 *
 * Numbers that must survive exactly (u64 counters, RNG states, IEEE
 * bit patterns) are stored as decimal lexemes or "0x..." strings; the
 * reader (JsonValue) keeps number lexemes verbatim, so no value ever
 * passes through a double.
 */

#include <sstream>

#include "common/json.h"
#include "common/log.h"
#include "common/serialize.h"
#include "system/lockstep.h"
#include "system/system.h"

namespace xloops {

namespace {

constexpr const char *ckptSchema = "xloops-ckpt-1";

} // namespace

std::string
XloopsSystem::checkpointText(const Program &prog, const RunState &rs,
                             const LockstepChecker *checker) const
{
    std::ostringstream os;
    JsonWriter w(os, /*pretty=*/true);
    w.beginObject();
    w.field("schema", ckptSchema);
    w.field("config", cfg.name);
    w.field("mode", execModeName(rs.mode));
    w.field("program_hash", strf("0x", std::hex, prog.hash()));
    w.field("inst_count", rs.result.gppInsts);
    w.field("pc", static_cast<u64>(rs.pc));

    w.key("regs");
    writeU64Array(w, {rs.regs.regs.begin(), rs.regs.regs.end()});

    w.key("result").beginObject();
    w.field("gpp_insts", rs.result.gppInsts);
    w.field("lane_insts", rs.result.laneInsts);
    w.field("xloops_specialized", rs.result.xloopsSpecialized);
    w.endObject();

    w.key("mem").beginObject();
    mem.saveState(w);
    w.endObject();

    w.key("gpp").beginObject();
    gpp->saveState(w);
    w.endObject();

    if (lpsu) {
        w.key("lpsu").beginObject();
        lpsu->saveState(w);
        w.endObject();
    }

    w.key("apt").beginObject();
    apt.saveState(w);
    w.endObject();

    w.key("fallback_pcs");
    writeU64Array(w, {fallbackPcs.begin(), fallbackPcs.end()});

    w.key("storm_cooldowns").beginArray();
    for (const auto &[pc, sc] : stormCooldowns) {
        w.beginObject();
        w.field("pc", static_cast<u64>(pc));
        w.field("level", static_cast<u64>(sc.level));
        w.field("remaining", sc.remaining);
        w.endObject();
    }
    w.endArray();

    if (profiler) {
        w.key("profiler").beginObject();
        profiler->saveState(w);
        w.endObject();
    }

    if (checker) {
        w.key("lockstep").beginObject();
        checker->saveState(w);
        w.endObject();
    }

    w.endObject();
    os << "\n";
    return os.str();
}

void
XloopsSystem::restoreCheckpoint(const JsonValue &v, const Program &prog,
                                RunState &rs, LockstepChecker *checker)
{
    if (v.at("schema").asString() != ckptSchema)
        fatal(strf("not an ", ckptSchema, " checkpoint"));
    if (v.at("config").asString() != cfg.name) {
        fatal(strf("checkpoint was taken on configuration '",
                   v.at("config").asString(), "', not '", cfg.name, "'"));
    }
    const ExecMode mode = execModeByName(v.at("mode").asString());
    if (mode != rs.mode)
        fatal("checkpoint execution mode does not match the run");
    if (parseU64(v.at("program_hash").asString()) != prog.hash())
        fatal("checkpoint was taken against a different program image");

    const std::vector<u64> regs = readU64Array(v.at("regs"));
    if (regs.size() != numArchRegs)
        fatal("checkpoint register file size mismatch");
    for (unsigned r = 0; r < numArchRegs; r++)
        rs.regs.regs[r] = static_cast<u32>(regs[r]);
    rs.pc = static_cast<Addr>(v.at("pc").asU64());
    rs.halted = false;

    const JsonValue &res = v.at("result");
    rs.result.gppInsts = res.at("gpp_insts").asU64();
    rs.result.laneInsts = res.at("lane_insts").asU64();
    rs.result.xloopsSpecialized = res.at("xloops_specialized").asU64();

    mem.loadState(v.at("mem"));
    gpp->loadState(v.at("gpp"));
    if (lpsu) {
        if (!v.has("lpsu"))
            fatal("checkpoint lacks LPSU state this configuration needs");
        lpsu->loadState(v.at("lpsu"));
    }
    apt.loadState(v.at("apt"));

    fallbackPcs.clear();
    for (const u64 pc : readU64Array(v.at("fallback_pcs")))
        fallbackPcs.insert(static_cast<Addr>(pc));

    stormCooldowns.clear();
    for (const JsonValue &scv : v.at("storm_cooldowns").array()) {
        StormCooldown sc;
        sc.level = static_cast<unsigned>(scv.at("level").asU64());
        sc.remaining = scv.at("remaining").asU64();
        stormCooldowns[static_cast<Addr>(scv.at("pc").asU64())] = sc;
    }

    if (profiler && v.has("profiler"))
        profiler->loadState(v.at("profiler"));

    if (checker) {
        if (v.has("lockstep")) {
            checker->loadState(v.at("lockstep"), rs.regs, mem, rs.pc);
        } else {
            // Checkpoint taken without lockstep: clone the shadow
            // from the restored main state (valid because the shadow
            // equals the main state at every boundary anyway).
            checker->resume(rs.regs, mem, rs.pc);
        }
    }
}

} // namespace xloops
