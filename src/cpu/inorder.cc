#include "cpu/inorder.h"

#include <algorithm>

#include "common/json.h"
#include "common/log.h"
#include "common/serialize.h"

namespace xloops {

InOrderCpu::InOrderCpu(const GppConfig &config)
    : cfg(config), icache(config.icache), dcache(config.dcache)
{
}

void
InOrderCpu::reset()
{
    nextIssue = 0;
    llfuFree = 0;
    lastComplete = 0;
    regReady.fill(0);
    icache.flush();
    dcache.flush();
    statGroup.clear();
}

void
InOrderCpu::advanceTo(Cycle cycle)
{
    if (cycle > nextIssue) {
        statGroup.add(Stat::ExtStallCycles, cycle - nextIssue);
        nextIssue = cycle;
    }
    lastComplete = std::max(lastComplete, cycle);
}

void
InOrderCpu::retire(const Instruction &inst, Addr pc, const StepResult &step)
{
    statGroup.add(Stat::Insts);

    // Fetch: instruction cache access; a miss stalls the front end.
    Cycle issue = nextIssue;
    const Cycle ifetch = icache.access(pc, false);
    if (ifetch > cfg.icache.hitLatency)
        issue += ifetch - cfg.icache.hitLatency;

    // Source operands via full bypass network.
    RegId srcs[2];
    const unsigned numSrcs = inst.srcRegs(srcs);
    for (unsigned i = 0; i < numSrcs; i++) {
        const Cycle ready = regReady[srcs[i]];
        if (ready > issue) {
            statGroup.add(Stat::RawStallCycles, ready - issue);
            issue = ready;
        }
    }

    // Structural hazard on the unpipelined divider.
    const FuClass fu = inst.traits().fuClass;
    const bool unpipelined = inst.op == Op::DIV || inst.op == Op::REM ||
                             inst.op == Op::FDIV;
    if (unpipelined && llfuFree > issue) {
        statGroup.add(Stat::LlfuStallCycles, llfuFree - issue);
        issue = llfuFree;
    }

    // Execute latency (memory adds the data cache model). The L1 is
    // blocking: a miss stalls the whole pipeline, not just the user.
    Cycle latency = inst.traits().latency;
    Cycle blockCycles = 0;
    if (step.memAccess) {
        const bool isWrite = inst.isStore() || inst.isAmo();
        const Cycle dlat = dcache.access(step.memAddr, isWrite, issue);
        latency += dlat - 1;  // traits latency already includes 1 hit cycle
        if (dlat > cfg.dcache.hitLatency) {
            blockCycles = dlat - cfg.dcache.hitLatency;
            statGroup.add(Stat::MemStallCycles, blockCycles);
        }
        statGroup.add(inst.isLoad()    ? Stat::Loads
                      : inst.isStore() ? Stat::Stores
                                       : Stat::Amos);
    }
    if (unpipelined)
        llfuFree = issue + latency;
    if (fu == FuClass::Mul || fu == FuClass::Fpu || fu == FuClass::Div)
        statGroup.add(Stat::LlfuOps);

    // Writeback.
    const RegId dst = inst.destReg();
    if (dst < numArchRegs)
        regReady[dst] = issue + latency;

    // Next fetch: single issue; taken control flow redirects the
    // front end (static not-taken prediction resolved in EX).
    nextIssue = issue + 1 + blockCycles;
    if (step.branchTaken) {
        nextIssue += cfg.branchPenalty;
        statGroup.add(Stat::BranchRedirects);
        statGroup.add(Stat::BranchStallCycles, cfg.branchPenalty);
        XTRACE(tracer, issue, TraceComp::Gpp, 0,
               TraceKind::BranchRedirect, static_cast<i64>(pc), 0);
    }
    if (inst.isBranch() || inst.isXloop())
        statGroup.add(Stat::Branches);

    lastComplete = std::max(lastComplete, issue + latency);
    statGroup.set(Stat::Cycles, lastComplete);
}

void
InOrderCpu::saveState(JsonWriter &w) const
{
    w.field("kind", "io");
    w.field("next_issue", nextIssue);
    w.field("llfu_free", llfuFree);
    w.field("last_complete", lastComplete);
    w.key("reg_ready");
    writeU64Array(w, {regReady.begin(), regReady.end()});
    w.key("icache").beginObject();
    icache.saveState(w);
    w.endObject();
    w.key("dcache").beginObject();
    dcache.saveState(w);
    w.endObject();
    w.key("stats").beginObject();
    statGroup.saveState(w);
    w.endObject();
}

void
InOrderCpu::loadState(const JsonValue &v)
{
    if (v.at("kind").asString() != "io")
        fatal("checkpoint GPP kind does not match configuration (io)");
    nextIssue = v.at("next_issue").asU64();
    llfuFree = v.at("llfu_free").asU64();
    lastComplete = v.at("last_complete").asU64();
    const std::vector<u64> ready = readU64Array(v.at("reg_ready"));
    if (ready.size() != regReady.size())
        fatal("checkpoint regReady size mismatch");
    std::copy(ready.begin(), ready.end(), regReady.begin());
    icache.loadState(v.at("icache"));
    dcache.loadState(v.at("dcache"));
    statGroup.loadState(v.at("stats"));
}

} // namespace xloops
