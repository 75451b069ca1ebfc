#include "cpu/ooo.h"

#include <algorithm>

#include "common/json.h"
#include "common/log.h"
#include "common/serialize.h"

namespace xloops {

GsharePredictor::GsharePredictor(unsigned table_bits)
    : tableBits(table_bits),
      counters(size_t{1} << table_bits, 1)  // weakly not-taken
{
}

void
GsharePredictor::reset()
{
    std::fill(counters.begin(), counters.end(), 1);
    history = 0;
}

bool
GsharePredictor::predictAndTrain(Addr pc, bool taken)
{
    const u32 mask = (1u << tableBits) - 1;
    const u32 index = ((pc >> 2) ^ history) & mask;
    u8 &ctr = counters[index];
    const bool predicted = ctr >= 2;
    if (taken) {
        if (ctr < 3)
            ctr++;
    } else {
        if (ctr > 0)
            ctr--;
    }
    history = ((history << 1) | (taken ? 1 : 0)) & mask;
    return predicted == taken;
}

OooCpu::OooCpu(const GppConfig &config)
    : cfg(config), icache(config.icache), dcache(config.dcache)
{
    XL_ASSERT(cfg.width >= 1 && cfg.robSize >= cfg.width &&
                  cfg.iqSize >= 1 && cfg.lsqEntries >= 1,
              "bad ooo config");
    robRetire.assign(cfg.robSize, 0);
    iqIssue.assign(cfg.iqSize, 0);
    storeQueue.resize(cfg.lsqEntries);
    issuePorts.assign(cfg.width, 0);
    memPorts.assign(cfg.memPorts, 0);
}

void
OooCpu::reset()
{
    fetchCycle = 0;
    fetchedThisCycle = 0;
    std::fill(robRetire.begin(), robRetire.end(), Cycle{0});
    std::fill(iqIssue.begin(), iqIssue.end(), Cycle{0});
    seq = 0;
    robSlot = 0;
    iqSlot = 0;
    lastRetire = 0;
    retiredThisCycle = 0;
    retireCycle = 0;
    regReady.fill(0);
    std::fill(issuePorts.begin(), issuePorts.end(), Cycle{0});
    std::fill(memPorts.begin(), memPorts.end(), Cycle{0});
    divFree = 0;
    sqNext = 0;
    sqCount = 0;
    bpred.reset();
    icache.flush();
    dcache.flush();
    statGroup.clear();
}

void
OooCpu::advanceTo(Cycle cycle)
{
    if (cycle > fetchCycle) {
        statGroup.add(Stat::ExtStallCycles, cycle - fetchCycle);
        fetchCycle = cycle;
        fetchedThisCycle = 0;
    }
    lastRetire = std::max(lastRetire, cycle);
    retireCycle = std::max(retireCycle, cycle);
}

Cycle
OooCpu::allocPort(std::vector<Cycle> &ports, Cycle earliest)
{
    auto it = std::min_element(ports.begin(), ports.end());
    const Cycle slot = std::max(*it, earliest);
    *it = slot + 1;
    return slot;
}

void
OooCpu::retire(const Instruction &inst, Addr pc, const StepResult &step)
{
    statGroup.add(Stat::Insts);

    // --- fetch/dispatch -------------------------------------------------
    const Cycle ifetch = icache.access(pc, false);
    if (ifetch > cfg.icache.hitLatency) {
        fetchCycle += ifetch - cfg.icache.hitLatency;
        fetchedThisCycle = 0;
    }
    if (fetchedThisCycle >= cfg.width) {
        fetchCycle++;
        fetchedThisCycle = 0;
    }

    // ROB window: the entry reused by this instruction must have
    // retired. IQ window: the entry reused must have issued.
    Cycle dispatch = fetchCycle;
    if (robRetire[robSlot] > dispatch) {
        statGroup.add(Stat::RobStallCycles, robRetire[robSlot] - dispatch);
        dispatch = robRetire[robSlot];
        fetchCycle = dispatch;
        fetchedThisCycle = 0;
    }
    if (iqIssue[iqSlot] > dispatch) {
        statGroup.add(Stat::IqStallCycles, iqIssue[iqSlot] - dispatch);
        dispatch = iqIssue[iqSlot];
        fetchCycle = dispatch;
        fetchedThisCycle = 0;
    }
    fetchedThisCycle++;

    // --- issue ------------------------------------------------------------
    Cycle operandsReady = dispatch + 1;
    RegId srcs[2];
    const unsigned numSrcs = inst.srcRegs(srcs);
    for (unsigned i = 0; i < numSrcs; i++)
        operandsReady = std::max(operandsReady, regReady[srcs[i]]);

    Cycle issue;
    Cycle latency = inst.traits().latency;
    const bool unpipelined = inst.op == Op::DIV || inst.op == Op::REM ||
                             inst.op == Op::FDIV;

    if (step.memAccess && (inst.isLoad() || inst.isAmo())) {
        issue = allocPort(memPorts, operandsReady);
        // Store-to-load forwarding from the newest matching store.
        bool forwarded = false;
        size_t slot = sqNext;
        for (size_t n = 0; n < sqCount; n++) {
            slot = (slot == 0 ? storeQueue.size() : slot) - 1;
            const SqEntry &e = storeQueue[slot];
            if (e.addr == step.memAddr && e.size == step.memSize) {
                latency = 1;
                issue = std::max(issue, e.dataReady);
                forwarded = true;
                statGroup.add(Stat::StlForwards);
                break;
            }
        }
        if (!forwarded) {
            // Trace events are stamped at the retire frontier, which
            // is monotone (issue times are not, out of order).
            const Cycle dlat =
                dcache.access(step.memAddr, false, retireCycle);
            latency += dlat - 1;
        }
        statGroup.add(inst.isAmo() ? Stat::Amos : Stat::Loads);
        if (inst.isAmo())
            latency += 2;  // conservative AMO handling on OoO GPPs
    } else if (step.memAccess) {
        // Store: address/data ready at issue; cache written at commit.
        issue = allocPort(memPorts, operandsReady);
        dcache.access(step.memAddr, true, retireCycle);
        storeQueue[sqNext] = {step.memAddr, step.memSize, issue + 1};
        if (++sqNext == storeQueue.size())
            sqNext = 0;
        if (sqCount < storeQueue.size())
            sqCount++;
        statGroup.add(Stat::Stores);
    } else if (unpipelined) {
        issue = std::max({operandsReady, divFree});
        divFree = issue + latency;
        statGroup.add(Stat::LlfuOps);
    } else {
        issue = allocPort(issuePorts, operandsReady);
        if (inst.isLlfu())
            statGroup.add(Stat::LlfuOps);
    }

    const Cycle complete = issue + latency;
    iqIssue[iqSlot] = issue;

    const RegId dst = inst.destReg();
    if (dst < numArchRegs)
        regReady[dst] = complete;

    // --- branch resolution ----------------------------------------------
    if (inst.isBranch() || inst.isXloop()) {
        statGroup.add(Stat::Branches);
        const bool correct = bpred.predictAndTrain(pc, step.branchTaken);
        if (!correct) {
            statGroup.add(Stat::Mispredicts);
            XTRACE(tracer, retireCycle, TraceComp::Gpp, 0,
                   TraceKind::BranchRedirect, static_cast<i64>(pc), 0);
            const Cycle redirect = complete + cfg.branchPenalty;
            if (redirect > fetchCycle) {
                fetchCycle = redirect;
                fetchedThisCycle = 0;
            }
        }
    } else if (inst.isJump()) {
        statGroup.add(Stat::Branches);  // predicted via BTB/RAS: no penalty
    }

    // --- in-order retire ---------------------------------------------------
    Cycle ret = std::max(complete + 1, retireCycle);
    if (ret == retireCycle && retiredThisCycle >= cfg.width)
        ret++;
    if (ret > retireCycle) {
        retireCycle = ret;
        retiredThisCycle = 0;
    }
    retiredThisCycle++;
    robRetire[robSlot] = ret;
    lastRetire = std::max(lastRetire, ret);
    seq++;
    if (++robSlot == robRetire.size())
        robSlot = 0;
    if (++iqSlot == iqIssue.size())
        iqSlot = 0;
    statGroup.set(Stat::Cycles, lastRetire);
}

void
GsharePredictor::saveState(JsonWriter &w) const
{
    w.field("history", static_cast<u64>(history));
    w.field("counters", hexEncode(counters.data(), counters.size()));
}

void
GsharePredictor::loadState(const JsonValue &v)
{
    history = static_cast<u32>(v.at("history").asU64());
    const std::vector<u8> table = hexDecode(v.at("counters").asString());
    if (table.size() != counters.size())
        fatal("checkpoint gshare table size mismatch");
    counters = table;
}

void
OooCpu::saveState(JsonWriter &w) const
{
    w.field("kind", "ooo");
    w.field("fetch_cycle", fetchCycle);
    w.field("fetched_this_cycle", static_cast<u64>(fetchedThisCycle));
    w.field("seq", seq);
    w.field("last_retire", lastRetire);
    w.field("retired_this_cycle", static_cast<u64>(retiredThisCycle));
    w.field("retire_cycle", retireCycle);
    w.field("div_free", divFree);
    w.key("rob_retire");
    writeU64Array(w, robRetire);
    w.key("iq_issue");
    writeU64Array(w, iqIssue);
    w.key("reg_ready");
    writeU64Array(w, {regReady.begin(), regReady.end()});
    w.key("issue_ports");
    writeU64Array(w, issuePorts);
    w.key("mem_ports");
    writeU64Array(w, memPorts);
    w.key("store_queue").beginArray();
    for (size_t n = 0; n < sqCount; n++) {  // oldest to newest
        const SqEntry &e =
            storeQueue[(sqNext + storeQueue.size() - sqCount + n) %
                       storeQueue.size()];
        w.beginObject();
        w.field("addr", static_cast<u64>(e.addr));
        w.field("size", static_cast<u64>(e.size));
        w.field("data_ready", e.dataReady);
        w.endObject();
    }
    w.endArray();
    w.key("bpred").beginObject();
    bpred.saveState(w);
    w.endObject();
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
OooCpu::loadState(const JsonValue &v)
{
    if (v.at("kind").asString() != "ooo")
        fatal("checkpoint GPP kind does not match configuration (ooo)");
    fetchCycle = v.at("fetch_cycle").asU64();
    fetchedThisCycle = static_cast<unsigned>(
        v.at("fetched_this_cycle").asU64());
    seq = v.at("seq").asU64();
    robSlot = seq % robRetire.size();
    iqSlot = seq % iqIssue.size();
    lastRetire = v.at("last_retire").asU64();
    retiredThisCycle = static_cast<unsigned>(
        v.at("retired_this_cycle").asU64());
    retireCycle = v.at("retire_cycle").asU64();
    divFree = v.at("div_free").asU64();

    auto loadVec = [&](const char *key, std::vector<Cycle> &out) {
        const std::vector<u64> raw = readU64Array(v.at(key));
        if (raw.size() != out.size())
            fatal(strf("checkpoint ", key, " size mismatch"));
        std::copy(raw.begin(), raw.end(), out.begin());
    };
    loadVec("rob_retire", robRetire);
    loadVec("iq_issue", iqIssue);
    loadVec("issue_ports", issuePorts);
    loadVec("mem_ports", memPorts);
    const std::vector<u64> ready = readU64Array(v.at("reg_ready"));
    if (ready.size() != regReady.size())
        fatal("checkpoint regReady size mismatch");
    std::copy(ready.begin(), ready.end(), regReady.begin());

    const auto &sq = v.at("store_queue").array();
    if (sq.size() > storeQueue.size())
        fatal(strf("checkpoint store_queue holds ", sq.size(),
                   " entries, more than the ", storeQueue.size(),
                   " the configuration has"));
    sqCount = sq.size();
    sqNext = sqCount == storeQueue.size() ? 0 : sqCount;
    for (size_t n = 0; n < sqCount; n++) {
        storeQueue[n] = {static_cast<Addr>(sq[n].at("addr").asU64()),
                         static_cast<unsigned>(sq[n].at("size").asU64()),
                         sq[n].at("data_ready").asU64()};
    }
    bpred.loadState(v.at("bpred"));
    icache.loadState(v.at("icache"));
    dcache.loadState(v.at("dcache"));
    statGroup.loadState(v.at("stats"));
}

} // namespace xloops
