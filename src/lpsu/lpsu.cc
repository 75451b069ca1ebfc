#include "lpsu/lpsu.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/json.h"
#include "common/log.h"
#include "common/sim_error.h"

namespace xloops {

// ---------------------------------------------------------------------
// Scan-phase static analysis (the LMU's bit-vector bookkeeping).
// ---------------------------------------------------------------------

ScanInfo
scanXloop(const Program &prog, Addr xloopPc, const RegFile &liveIns)
{
    const DecodedProgram &dec = prog.decoded();
    const Instruction &xl = dec.fetch(xloopPc);
    if (!xl.isXloop())
        panic("scanXloop on a non-xloop instruction");

    ScanInfo si;
    si.pattern = xl.pattern();
    si.dynamicBound = xl.isDynamicBound();
    si.dataDepExit = xl.isDataDepExit();
    si.idxReg = xl.rd;
    si.boundReg = xl.rs1;
    si.bodyEnd = xloopPc;
    si.bodyStart = static_cast<Addr>(
        static_cast<i64>(xloopPc) + i64{xl.imm} * 4);

    for (Addr pc = si.bodyStart; pc < si.bodyEnd; pc += 4)
        si.body.push_back(dec.fetch(pc));

    // MIVT: collect xi instructions first so their registers are
    // excluded from CIR detection. addu.xi increments by a
    // loop-invariant register read from the live-in register file.
    for (const Instruction &inst : si.body) {
        if (inst.op == Op::ADDIU_XI) {
            si.isMiv[inst.rd] = true;
            si.mivInc[inst.rd] = inst.imm;
        } else if (inst.op == Op::ADDU_XI) {
            si.isMiv[inst.rd] = true;
            si.mivInc[inst.rd] = static_cast<i32>(liveIns.get(inst.rs2));
        }
    }

    // Read-before-write / written bit-vectors in static program order.
    std::array<bool, numArchRegs> readFirst{};
    std::array<bool, numArchRegs> written{};
    for (const Instruction &inst : si.body) {
        RegId srcs[2];
        const unsigned n = inst.srcRegs(srcs);
        for (unsigned i = 0; i < n; i++) {
            if (srcs[i] != 0 && !written[srcs[i]])
                readFirst[srcs[i]] = true;
        }
        const RegId dst = inst.destReg();
        if (dst < numArchRegs)
            written[dst] = true;
    }

    for (unsigned r = 1; r < numArchRegs; r++) {
        if (readFirst[r])
            si.numLiveIns++;
        const bool excluded = r == si.idxReg || r == si.boundReg ||
                              si.isMiv[r];
        if (readFirst[r] && written[r] && !excluded) {
            si.isCir[r] = true;
            si.numCirs++;
        }
    }

    // Last static write per CIR, and whether pushing the CIB value at
    // that instruction is safe (no backward branch can re-execute it).
    for (size_t i = 0; i < si.body.size(); i++) {
        const Instruction &inst = si.body[i];
        const RegId dst = inst.destReg();
        const Addr pc = si.bodyStart + static_cast<Addr>(4 * i);
        if (dst < numArchRegs && si.isCir[dst])
            si.lastCirWritePc[dst] = pc;
    }
    for (unsigned r = 1; r < numArchRegs; r++) {
        if (!si.isCir[r])
            continue;
        si.earlyPushOk[r] = true;
        for (size_t i = 0; i < si.body.size(); i++) {
            const Instruction &inst = si.body[i];
            if (!inst.isBranch() && !inst.isXloop())
                continue;
            const Addr pc = si.bodyStart + static_cast<Addr>(4 * i);
            const Addr target = static_cast<Addr>(
                static_cast<i64>(pc) + i64{inst.imm} * 4);
            // A backward edge crossing the last write re-executes it.
            if (pc >= si.lastCirWritePc[r] && target <= si.lastCirWritePc[r])
                si.earlyPushOk[r] = false;
        }
    }
    return si;
}

// ---------------------------------------------------------------------
// Run-time structures.
// ---------------------------------------------------------------------

namespace {

/** One slot of a cross-iteration buffer. */
struct CibSlot
{
    i64 iter;
    u32 value;
};

/** CIB channel from lane (i-1+N)%N into lane i, one queue per CIR. */
struct Cib
{
    unsigned depth = 4;
    std::array<std::deque<CibSlot>, numArchRegs> perReg;

    bool full(RegId r) const { return perReg[r].size() >= depth; }

    void
    push(RegId r, i64 iter, u32 value)
    {
        XL_ASSERT(!full(r), "CIB overflow");
        perReg[r].push_back({iter, value});
    }

    std::optional<u32>
    consume(RegId r, i64 iter)
    {
        auto &q = perReg[r];
        if (!q.empty() && q.front().iter == iter - 1) {
            const u32 value = q.front().value;
            q.pop_front();
            return value;
        }
        return std::nullopt;
    }
};

/** Why a context could not issue this cycle (Figure 6 categories).
 *  The taxonomy lives in common/trace.h so the trace, the per-loop
 *  profiler, and these counters agree exactly. */
using Stall = StallKind;

const char *
stallCounter(Stall s)
{
    switch (s) {
      case Stall::Idle: return "lane_idle_cycles";
      case Stall::Raw: return "lane_raw_stall_cycles";
      case Stall::Cir: return "lane_cir_stall_cycles";
      case Stall::CibFull: return "lane_cib_stall_cycles";
      case Stall::MemPort: return "lane_memport_stall_cycles";
      case Stall::Llfu: return "lane_llfu_stall_cycles";
      case Stall::LsqFull: return "lane_lsq_stall_cycles";
      case Stall::CommitWait: return "lane_commit_stall_cycles";
      case Stall::AmoWait: return "lane_amo_stall_cycles";
      case Stall::None: break;
    }
    return "lane_other_stall_cycles";
}

/** One hardware thread context within a lane. */
struct Context
{
    Context(unsigned load_entries, unsigned store_entries)
        : lsq(load_entries, store_entries)
    {}

    bool active = false;
    i64 iter = 0;
    Addr pc = 0;
    RegFile regs;
    RegFile snapshot;
    std::array<Cycle, numArchRegs> regReady{};
    Cycle busyUntil = 0;
    std::array<bool, numArchRegs> cirConsumed{};
    std::array<bool, numArchRegs> cirPushed{};
    std::array<bool, numArchRegs> cirWritten{};
    std::array<i64, numArchRegs> mivLastIter{};
    LaneLsq lsq;
    bool bodyDone = false;
    Cycle iterStart = 0;
    u64 iterInsts = 0;
    unsigned overflowSquashes = 0;  ///< LSQ-overflow retries this iter
    Stall lastStall = Stall::None;  ///< for machine-state snapshots
    unsigned laneIdx = 0;           ///< owning lane (trace track id)
    bool pendingReplay = false;     ///< squashed; Replay event on
                                    ///< next issued instruction
};

/** MemIface routing a lane's accesses directly or through its LSQ. */
class LaneMem : public MemIface
{
  public:
    MainMemory *mem = nullptr;
    LaneLsq *lsq = nullptr;
    bool buffered = false;   ///< speculative: route through the LSQ
    bool crossLane = false;  ///< compose older lanes' stores too
    const std::vector<const LaneLsq *> *olderLsqs = nullptr;
    u32 lastLoadValue = 0;
    bool overflowed = false; ///< a buffered store found the LSQ full:
                             ///< the lane must squash-and-retry

    u32
    read(Addr addr, unsigned size) override
    {
        if (!buffered)
            return mem->read(addr, size);
        u32 value;
        if (crossLane && olderLsqs && !olderLsqs->empty()) {
            // Compose: memory, then older iterations' stores in
            // iteration order, then our own stores.
            value = 0;
            for (unsigned i = 0; i < size; i++) {
                u8 b = static_cast<u8>(mem->read(addr + i, 1));
                for (const LaneLsq *other : *olderLsqs) {
                    const u32 v = other->coveredRead(*mem, addr + i, 1);
                    if (other->fullyCovered(addr + i, 1))
                        b = static_cast<u8>(v);
                }
                value |= static_cast<u32>(b) << (8 * i);
            }
            // Own stores override everything older.
            for (unsigned i = 0; i < size; i++) {
                if (lsq->fullyCovered(addr + i, 1)) {
                    value &= ~(0xffu << (8 * i));
                    value |= lsq->coveredRead(*mem, addr + i, 1) << (8 * i);
                }
            }
        } else {
            value = lsq->coveredRead(*mem, addr, size);
        }
        lastLoadValue = value;
        return value;
    }

    void
    write(Addr addr, unsigned size, u32 value) override
    {
        if (buffered) {
            // Capacity pressure is a structural stall, not a panic:
            // the engine squashes and retries the iteration (its
            // architectural effects are still fully buffered).
            if (!lsq->pushStore(addr, size, value))
                overflowed = true;
        } else {
            mem->write(addr, size, value);
        }
    }

    u32
    amo(Op op, Addr addr, u32 operand) override
    {
        XL_ASSERT(!buffered, "speculative lane executed an AMO");
        return mem->amo(op, addr, operand);
    }
};

// ---------------------------------------------------------------------
// The specialized-execution engine. One instance per xloop execution.
// ---------------------------------------------------------------------

constexpr Cycle lpsuCycleLimit = 2'000'000'000;

/** A store-address broadcast delayed in the network (injected). */
struct PendingBroadcast
{
    Addr addr;
    unsigned size;
    i64 iter;
    Cycle fire;
};

class LpsuEngine
{
  public:
    LpsuEngine(const LpsuConfig &config, MainMemory &memory,
               L1Cache &dcache_model, StatGroup &stat_group,
               FaultInjector &fault_injector, const ScanInfo &scan_info,
               RegFile &live_ins, i64 start_idx, i64 initial_bound,
               u64 max_iters, Tracer *tracer, LoopProfile *loop_profile,
               Cycle abs_base);

    LpsuResult run();

  private:
    struct Lane
    {
        std::vector<Context> ctxs;
        std::vector<i64> laneNextIter;  // ordered dispatch (1 entry)
        unsigned rr = 0;                // MT round-robin pointer
    };

    i64 effBound() const;
    bool orderedDispatch() const { return si.pattern != LoopPattern::UC; }
    bool done() const;
    void seedCibs();

    /** Engine cycle on the absolute system timeline (trace stamps). */
    Cycle absCycle() const { return absBase + cycle; }

    /** Per-cycle observer work: lane stall-slice transitions, per-loop
     *  stall attribution, occupancy histograms. Timing-neutral. */
    void observeLaneCycle(unsigned lane_idx, Stall outcome);
    void observeOccupancy();
    void flushStallSlices();

    void activate(Lane &lane, Context &ctx, i64 iter);
    std::optional<i64> nextIterFor(unsigned lane_idx);
    Stall tickContext(unsigned lane_idx, Context &ctx);
    Stall execInst(unsigned lane_idx, Context &ctx);
    bool drainUnreadCirs(unsigned lane_idx, Context &ctx, Stall &stall);
    bool finishBody(unsigned lane_idx, Context &ctx, Stall &stall);
    void completeIteration(Context &ctx);
    void broadcastStore(Addr addr, unsigned size, i64 store_iter);
    void deliverBroadcast(Addr addr, unsigned size, i64 store_iter);
    void flushPendingBroadcasts();
    void squash(Context &ctx);
    void noteSquash();
    void beginStormFallback();
    void capDispatchForMigration();
    void injectFaultsThisCycle();
    MachineSnapshot snapshotState(const std::string &context) const;
    bool llfuRequest(const Instruction &inst);
    Cib &cibIn(unsigned lane_idx) { return cibs[lane_idx]; }
    Cib &cibOut(unsigned lane_idx)
    {
        return cibs[(lane_idx + 1) % cfg.lanes];
    }
    void pushCir(unsigned lane_idx, Context &ctx, RegId reg, u32 value);

    const LpsuConfig &cfg;
    MainMemory &mem;
    L1Cache &dcache;
    StatGroup &stats;
    FaultInjector &inj;
    const ScanInfo &si;
    RegFile &liveIns;
    Tracer *tr = nullptr;
    LoopProfile *prof = nullptr;
    Cycle absBase = 0;

    /** Per-lane open stall interval (for LaneStall trace slices). */
    struct StallObs
    {
        Stall kind = Stall::None;
        Cycle since = 0;
    };
    std::vector<StallObs> laneObs;

    i64 startIdx;
    i64 bound;
    u64 maxIters;

    std::vector<Lane> lanes;
    std::vector<Cib> cibs;
    std::vector<Cycle> llfuFree;
    unsigned memPortsLeft = 0;
    Cycle cycle = 0;

    i64 nextDispatch;       // uc central counter
    i64 nextToCommit;       // ordered patterns
    u64 completed = 0;
    u64 laneInsts = 0;
    u64 squashes = 0;
    u32 exitFlag = 0;   ///< data-dependent exit value (0 = no exit)
    bool dualEligible = false;  ///< last action allows same-cycle issue
    std::array<u32, numArchRegs> finalCir{};
    std::array<bool, numArchRegs> finalCirValid{};

    // --- Robustness state --------------------------------------------
    Cycle lastCommitCycle = 0;       ///< watchdog progress marker
    std::deque<Cycle> squashWindow;  ///< squash times (storm detector)
    unsigned stormCount = 0;
    Cycle serializedUntil = 0;       ///< lanes serialized through here
    bool stormFallbackPending = false;
    bool stormFellBack = false;
    bool migratePending = false;
    std::optional<i64> dispatchCap;  ///< migration / fallback bound cap
    std::vector<PendingBroadcast> pendingBroadcasts;
};

LpsuEngine::LpsuEngine(const LpsuConfig &config, MainMemory &memory,
                       L1Cache &dcache_model, StatGroup &stat_group,
                       FaultInjector &fault_injector,
                       const ScanInfo &scan_info, RegFile &live_ins,
                       i64 start_idx, i64 initial_bound, u64 max_iters,
                       Tracer *tracer, LoopProfile *loop_profile,
                       Cycle abs_base)
    : cfg(config), mem(memory), dcache(dcache_model), stats(stat_group),
      inj(fault_injector), si(scan_info), liveIns(live_ins),
      tr(tracer), prof(loop_profile), absBase(abs_base),
      laneObs(cfg.lanes),
      startIdx(start_idx), bound(initial_bound), maxIters(max_iters),
      cibs(cfg.lanes), llfuFree(cfg.llfus, 0),
      nextDispatch(start_idx), nextToCommit(start_idx)
{
    const bool mt = cfg.multithreading && si.pattern == LoopPattern::UC;
    const unsigned ctxsPerLane = mt ? 2 : 1;
    lanes.resize(cfg.lanes);
    for (unsigned l = 0; l < cfg.lanes; l++) {
        Lane &lane = lanes[l];
        for (unsigned c = 0; c < ctxsPerLane; c++) {
            lane.ctxs.emplace_back(cfg.lsqLoadEntries, cfg.lsqStoreEntries);
            Context &ctx = lane.ctxs.back();
            ctx.regs = liveIns;
            ctx.snapshot = liveIns;
            ctx.laneIdx = l;
            for (unsigned r = 0; r < numArchRegs; r++)
                ctx.mivLastIter[r] = startIdx - 1;  // GPP ran iter idx0
        }
        lane.laneNextIter.push_back(startIdx + l);
    }
    for (auto &cib : cibs)
        cib.depth = cfg.cibDepth;
    seedCibs();
}

i64
LpsuEngine::effBound() const
{
    i64 b = bound;
    if (maxIters < static_cast<u64>(1) << 60)
        b = std::min(b, startIdx + static_cast<i64>(maxIters));
    if (dispatchCap)
        b = std::min(b, *dispatchCap);
    return b;
}

void
LpsuEngine::seedCibs()
{
    if (!si.ordersRegisters())
        return;
    // Iteration startIdx (on lane 0) consumes values produced by the
    // GPP's iteration startIdx-1: they are the live-in CIR values.
    for (unsigned r = 1; r < numArchRegs; r++) {
        if (si.isCir[r])
            cibIn(0).push(static_cast<RegId>(r), startIdx - 1,
                          liveIns.get(static_cast<RegId>(r)));
    }
}

bool
LpsuEngine::done() const
{
    for (const auto &lane : lanes)
        for (const auto &ctx : lane.ctxs)
            if (ctx.active)
                return false;
    if (orderedDispatch())
        return nextToCommit >= effBound();
    return nextDispatch >= effBound();
}

std::optional<i64>
LpsuEngine::nextIterFor(unsigned lane_idx)
{
    if (orderedDispatch()) {
        i64 &next = lanes[lane_idx].laneNextIter[0];
        if (next >= effBound())
            return std::nullopt;
        const i64 iter = next;
        next += cfg.lanes;
        return iter;
    }
    if (nextDispatch >= effBound())
        return std::nullopt;
    return nextDispatch++;
}

void
LpsuEngine::activate(Lane &lane, Context &ctx, i64 iter)
{
    (void)lane;
    ctx.active = true;
    ctx.iter = iter;
    ctx.pc = si.bodyStart;
    ctx.bodyDone = false;
    ctx.cirConsumed.fill(false);
    ctx.cirPushed.fill(false);
    ctx.cirWritten.fill(false);
    ctx.iterStart = cycle;
    ctx.iterInsts = 0;

    ctx.regs.set(si.idxReg, static_cast<u32>(iter));
    ctx.regReady[si.idxReg] = cycle + 1;
    if (si.dataDepExit) {
        // The exit flag is cleared per iteration; the LMU samples it
        // at commit.
        ctx.regs.set(si.boundReg, 0);
        ctx.regReady[si.boundReg] = cycle + 1;
    }

    // MIV fix-up: jump each mutual induction variable forward by the
    // iteration-index delta (the paper's narrow multiply).
    for (unsigned r = 1; r < numArchRegs; r++) {
        if (!si.isMiv[r])
            continue;
        const i64 delta = iter - ctx.mivLastIter[r] - 1;
        ctx.regs.set(static_cast<RegId>(r),
                     ctx.regs.get(static_cast<RegId>(r)) +
                         static_cast<u32>(si.mivInc[r] * delta));
        ctx.mivLastIter[r] = iter;
        ctx.regReady[r] = cycle + 1;
        stats.add("miv_fixups");
    }

    ctx.snapshot = ctx.regs;
    ctx.busyUntil = cycle + 1;  // activation occupies the issue slot
    ctx.overflowSquashes = 0;
    ctx.pendingReplay = false;
    XTRACE(tr, absCycle(), TraceComp::Lane, ctx.laneIdx,
           TraceKind::IterBegin, iter, 0);
    stats.add("idq_pops");
}

void
LpsuEngine::pushCir(unsigned lane_idx, Context &ctx, RegId reg, u32 value)
{
    cibOut(lane_idx).push(reg, ctx.iter, value);
    ctx.cirPushed[reg] = true;
    finalCir[reg] = value;
    finalCirValid[reg] = true;
    stats.add("cib_pushes");
    XTRACE(tr, absCycle(), TraceComp::Cib, lane_idx, TraceKind::CibPush,
           static_cast<i64>(reg), ctx.iter);
}

void
LpsuEngine::completeIteration(Context &ctx)
{
    const Cycle iterDur = cycle >= ctx.iterStart ? cycle - ctx.iterStart : 0;
    stats.sample("iter_cycles", iterDur);
    if (prof)
        prof->iterCycles.sample(iterDur);
    XTRACE(tr, absCycle(), TraceComp::Lane, ctx.laneIdx, TraceKind::IterEnd,
           ctx.iter, static_cast<i64>(iterDur));
    XTRACE(tr, absCycle(), TraceComp::Lmu, 0, TraceKind::Commit,
           ctx.iter, 0);
    ctx.active = false;
    ctx.bodyDone = false;
    ctx.lsq.clear();
    ctx.overflowSquashes = 0;
    completed++;
    lastCommitCycle = cycle;
    // Injected mid-loop migration: hand the loop back to the GPP at an
    // iteration boundary (processed at the top of the next cycle so
    // the dispatch cap covers everything already handed out).
    if (inj.enabled() && inj.triggerMigration())
        migratePending = true;
    // or-pattern iterations may complete out of order (memory-port
    // starvation can delay a lower iteration past a higher one), so
    // the high-water mark must never regress. om/orm/ua commits are
    // strictly ordered and hit the max() trivially.
    if (orderedDispatch())
        nextToCommit = std::max(nextToCommit, ctx.iter + 1);
    stats.add("iterations");
}

void
LpsuEngine::broadcastStore(Addr addr, unsigned size, i64 store_iter)
{
    // Injected network delay: the broadcast reaches consumers a few
    // cycles late. Correctness is preserved because every pending
    // broadcast is flushed before any younger iteration commits
    // (see finishBody), so a violation can be detected late but
    // never escape.
    if (inj.enabled()) {
        const Cycle delay = inj.broadcastDelay();
        if (delay > 0) {
            pendingBroadcasts.push_back(
                {addr, size, store_iter, cycle + delay});
            stats.add("injected_broadcast_delays");
            return;
        }
    }
    deliverBroadcast(addr, size, store_iter);
}

void
LpsuEngine::flushPendingBroadcasts()
{
    while (!pendingBroadcasts.empty()) {
        const PendingBroadcast pb = pendingBroadcasts.front();
        pendingBroadcasts.erase(pendingBroadcasts.begin());
        deliverBroadcast(pb.addr, pb.size, pb.iter);
    }
}

void
LpsuEngine::deliverBroadcast(Addr addr, unsigned size, i64 store_iter)
{
    stats.add("store_broadcasts");
    XTRACE(tr, absCycle(), TraceComp::Lmu, 0, TraceKind::StoreBroadcast,
           static_cast<i64>(addr), store_iter);
    i64 firstSquashed = std::numeric_limits<i64>::max();
    for (auto &lane : lanes) {
        for (auto &ctx : lane.ctxs) {
            if (!ctx.active || ctx.iter <= store_iter)
                continue;
            if (!ctx.lsq.loadOverlaps(addr, size))
                continue;
            if (cfg.interLaneForwarding) {
                // Aggressive design: cross-lane forwarding usually
                // read the right value already, so squash only when
                // re-reading now (against the just-performed store)
                // would actually change an observed value.
                if (ctx.lsq.loadsWouldChange(mem, addr, size)) {
                    squash(ctx);
                    firstSquashed = std::min(firstSquashed, ctx.iter);
                } else {
                    stats.add("squashes_filtered");
                }
            } else {
                squash(ctx);
            }
        }
    }
    // Cascaded squash: with cross-lane forwarding, a squashed
    // iteration's buffered stores may already have been forwarded to
    // even-younger iterations, so everything beyond the first squash
    // must restart too (the classic TLS dependence-chain squash).
    if (cfg.interLaneForwarding &&
        firstSquashed != std::numeric_limits<i64>::max()) {
        for (auto &lane : lanes) {
            for (auto &ctx : lane.ctxs) {
                if (ctx.active && ctx.iter > firstSquashed) {
                    squash(ctx);
                    stats.add("cascade_squashes");
                }
            }
        }
    }
}

void
LpsuEngine::squash(Context &ctx)
{
    squashes++;
    stats.add("squashes");
    stats.add("squash_cycles", cycle > ctx.iterStart
                                   ? cycle - ctx.iterStart : 0);
    stats.add("squashed_insts", ctx.iterInsts);
    if (prof)
        prof->squashes++;
    XTRACE(tr, absCycle(), TraceComp::Lane, ctx.laneIdx, TraceKind::Squash,
           ctx.iter, static_cast<i64>(cycle > ctx.iterStart
                                          ? cycle - ctx.iterStart : 0));
    ctx.pendingReplay = true;
    ctx.regs = ctx.snapshot;
    ctx.regReady.fill(cycle + 1);
    ctx.lsq.clear();
    ctx.pc = si.bodyStart;
    ctx.bodyDone = false;
    ctx.cirPushed.fill(false);
    ctx.cirWritten.fill(false);
    ctx.iterStart = cycle;
    ctx.iterInsts = 0;
    ctx.busyUntil = cycle + 1;
    noteSquash();
}

/**
 * Squash-storm detector: when squashes cluster inside a sliding
 * window, speculation is clearly wasting work — serialize the lanes
 * (only the committing iteration runs) for an exponentially
 * backed-off period, and past maxStorms storms abandon the loop and
 * degrade to traditional execution at iteration granularity.
 */
void
LpsuEngine::noteSquash()
{
    if (cfg.stormThreshold == 0)
        return;
    squashWindow.push_back(cycle);
    while (!squashWindow.empty() &&
           squashWindow.front() + cfg.stormWindow < cycle)
        squashWindow.pop_front();
    if (squashWindow.size() < cfg.stormThreshold)
        return;
    squashWindow.clear();
    stormCount++;
    stats.add("lpsu_storm_serializations");
    const unsigned shift = std::min(stormCount - 1, 8u);
    serializedUntil = cycle + (cfg.stormBackoffCycles << shift);
    XTRACE(tr, absCycle(), TraceComp::Lmu, 0, TraceKind::StormSerialize,
           static_cast<i64>(stormCount),
           static_cast<i64>(absBase + serializedUntil));
    if (stormCount > cfg.maxStorms)
        stormFallbackPending = true;
}

/**
 * Storm fallback: let the committing iteration finish, cancel every
 * speculative iteration (their stores never left the LSQs), and cap
 * dispatch so the engine drains and hands back a contiguous prefix.
 * The GPP resumes the loop traditionally from the handed-back index.
 */
void
LpsuEngine::beginStormFallback()
{
    stormFallbackPending = false;
    stormFellBack = true;
    stats.add("lpsu_fallbacks");
    if (prof)
        prof->fallbacks++;
    i64 cap = nextToCommit;
    for (auto &lane : lanes)
        for (auto &ctx : lane.ctxs)
            if (ctx.active && ctx.iter == nextToCommit)
                cap = nextToCommit + 1;
    for (auto &lane : lanes) {
        for (auto &ctx : lane.ctxs) {
            if (ctx.active && ctx.iter >= cap) {
                ctx.active = false;
                ctx.bodyDone = false;
                ctx.lsq.clear();
                stats.add("cancelled_iterations");
            }
        }
    }
    dispatchCap = dispatchCap ? std::min(*dispatchCap, cap) : cap;
    XTRACE(tr, absCycle(), TraceComp::Lmu, 0, TraceKind::StormFallback,
           cap, 0);
}

/**
 * Migration (injected or future adaptive re-profiling): stop handing
 * out iterations past a cap that covers everything already
 * dispatched, so completed work forms a contiguous prefix and the
 * hand-back state is architecturally exact.
 */
void
LpsuEngine::capDispatchForMigration()
{
    migratePending = false;
    if (dispatchCap)
        return;
    i64 cap;
    if (orderedDispatch()) {
        cap = nextToCommit;
        for (const auto &lane : lanes)
            cap = std::max(cap, lane.laneNextIter[0]);
    } else {
        cap = nextDispatch;
    }
    if (cap >= effBound())
        return;  // nothing left to cut off
    dispatchCap = cap;
    stats.add("injected_migrations");
    XTRACE(tr, absCycle(), TraceComp::Lmu, 0, TraceKind::Migration, cap, 0);
}

/** Per-cycle fault processing: matured broadcasts, forced squashes. */
void
LpsuEngine::injectFaultsThisCycle()
{
    for (size_t i = 0; i < pendingBroadcasts.size();) {
        if (pendingBroadcasts[i].fire <= cycle) {
            const PendingBroadcast pb = pendingBroadcasts[i];
            pendingBroadcasts.erase(pendingBroadcasts.begin() +
                                    static_cast<long>(i));
            deliverBroadcast(pb.addr, pb.size, pb.iter);
        } else {
            i++;
        }
    }
    // Forced squashes hit only speculative contexts of memory-ordered
    // patterns — exactly the set real dependence violations can hit —
    // so rollback is always architecturally safe.
    if (!si.ordersMemory())
        return;
    for (auto &lane : lanes) {
        for (auto &ctx : lane.ctxs) {
            if (ctx.active && ctx.iter != nextToCommit &&
                inj.forceSquash()) {
                stats.add("injected_squashes");
                XTRACE(tr, absCycle(), TraceComp::Lmu, 0,
                       TraceKind::FaultInject, ctx.iter, 0);
                squash(ctx);
            }
        }
    }
}

MachineSnapshot
LpsuEngine::snapshotState(const std::string &context) const
{
    MachineSnapshot s;
    s.context = context;
    s.cycle = cycle;
    s.committedIters = completed;
    s.nextToCommit = nextToCommit;
    s.nextDispatch = nextDispatch;
    s.effectiveBound = effBound();
    s.memPortsLeft = memPortsLeft;
    for (unsigned l = 0; l < lanes.size(); l++) {
        for (unsigned c = 0; c < lanes[l].ctxs.size(); c++) {
            const Context &ctx = lanes[l].ctxs[c];
            LaneSnapshot ls;
            ls.lane = l;
            ls.ctx = c;
            ls.active = ctx.active;
            ls.iter = ctx.iter;
            ls.pc = ctx.pc;
            ls.bodyDone = ctx.bodyDone;
            ls.busyUntil = ctx.busyUntil;
            ls.lsqLoads = ctx.lsq.numLoads();
            ls.lsqStores = ctx.lsq.numStores();
            ls.lastStall = stallKindName(ctx.lastStall);
            s.lanes.push_back(ls);
        }
        if (orderedDispatch()) {
            s.occupancy.emplace_back(
                strf("idq[lane", l, "].nextIter"),
                static_cast<u64>(lanes[l].laneNextIter[0]));
        }
    }
    for (unsigned l = 0; l < cibs.size(); l++) {
        for (unsigned r = 1; r < numArchRegs; r++) {
            if (!cibs[l].perReg[r].empty()) {
                s.occupancy.emplace_back(
                    strf("cib[lane", l, "][r", r, "]"),
                    cibs[l].perReg[r].size());
            }
        }
    }
    s.occupancy.emplace_back("pending_broadcasts",
                             pendingBroadcasts.size());
    s.occupancy.emplace_back("storm_count", stormCount);
    if (tr)
        s.recentEvents = tr->lastEvents(16);
    return s;
}

bool
LpsuEngine::llfuRequest(const Instruction &inst)
{
    const bool pipelined = inst.op != Op::DIV && inst.op != Op::REM &&
                           inst.op != Op::FDIV;
    for (auto &unitFree : llfuFree) {
        if (unitFree <= cycle) {
            unitFree = pipelined ? cycle + 1 : cycle + inst.traits().latency;
            return true;
        }
    }
    return false;
}

/**
 * Consume any CIR this iteration never read (a dynamically skipped
 * read, e.g. a guarded use as in the paper's mm kernel): the value
 * must still flow through the lane so the chain stays connected.
 * Returns false (and sets @p stall) when the producer has not pushed
 * yet.
 */
bool
LpsuEngine::drainUnreadCirs(unsigned lane_idx, Context &ctx, Stall &stall)
{
    for (unsigned r = 1; r < numArchRegs; r++) {
        if (!si.isCir[r] || ctx.cirConsumed[r])
            continue;
        const auto value = cibIn(lane_idx).consume(static_cast<RegId>(r),
                                                   ctx.iter);
        if (!value) {
            stall = Stall::Cir;
            return false;
        }
        // Forward-only: do not clobber a value the body wrote on a
        // path that skipped the read.
        if (!ctx.cirWritten[r])
            ctx.regs.set(static_cast<RegId>(r), *value);
        ctx.cirConsumed[r] = true;
        stats.add("cib_consumes");
        XTRACE(tr, absCycle(), TraceComp::Cib, lane_idx,
               TraceKind::CibConsume, static_cast<i64>(r), ctx.iter);
    }
    return true;
}

/** End-of-body handling. Returns true when the context made progress. */
bool
LpsuEngine::finishBody(unsigned lane_idx, Context &ctx, Stall &stall)
{
    if (si.ordersRegisters() && !drainUnreadCirs(lane_idx, ctx, stall))
        return false;

    if (si.ordersMemory()) {
        if (ctx.iter != nextToCommit) {
            stall = Stall::CommitWait;
            return false;
        }
        if (ctx.lsq.hasStores()) {
            if (memPortsLeft == 0) {
                stall = Stall::MemPort;
                return false;
            }
            memPortsLeft--;
            const LsqAccess st = ctx.lsq.popOldestStore();
            mem.write(st.addr, st.size, st.value);
            dcache.access(st.addr, true);
            stats.add("lsq_drain_stores");
            XTRACE(tr, absCycle(), TraceComp::Lsq, lane_idx,
                   TraceKind::LsqDrain, static_cast<i64>(st.addr), ctx.iter);
            broadcastStore(st.addr, st.size, ctx.iter);
            return true;
        }
        // ORM communicates CIRs at commit (a squash after an early
        // push could leak a wrong value to the consumer).
        if (si.ordersRegisters()) {
            for (unsigned r = 1; r < numArchRegs; r++) {
                if (si.isCir[r] && !ctx.cirPushed[r]) {
                    if (cibOut(lane_idx).full(static_cast<RegId>(r)) ||
                        (inj.enabled() && inj.forceCibFull())) {
                        stall = Stall::CibFull;
                        return false;
                    }
                    pushCir(lane_idx, ctx, static_cast<RegId>(r),
                            ctx.regs.get(static_cast<RegId>(r)));
                }
            }
        }
        // Data-dependent exit: the committing (architecturally
        // non-speculative) iteration samples its exit flag; a
        // non-zero flag ends the loop and cancels every buffered
        // iteration beyond it — their stores never left the LSQs.
        if (si.dataDepExit &&
            ctx.regs.get(si.boundReg) != 0) {
            exitFlag = ctx.regs.get(si.boundReg);
            bound = ctx.iter + 1;
            for (auto &lane : lanes) {
                for (auto &other : lane.ctxs) {
                    if (other.active && other.iter > ctx.iter) {
                        other.active = false;
                        other.bodyDone = false;
                        other.lsq.clear();
                        stats.add("cancelled_iterations");
                    }
                }
            }
        }
        // Commit barrier for injected broadcast delays: once this
        // iteration commits, the next one turns non-speculative and
        // stops recording loads, so every in-flight broadcast must
        // land first.
        flushPendingBroadcasts();
        completeIteration(ctx);
        return true;
    }

    // or: push any CIRs whose last write was skipped or not early-safe.
    if (si.ordersRegisters()) {
        for (unsigned r = 1; r < numArchRegs; r++) {
            if (si.isCir[r] && !ctx.cirPushed[r]) {
                if (cibOut(lane_idx).full(static_cast<RegId>(r)) ||
                    (inj.enabled() && inj.forceCibFull())) {
                    stall = Stall::CibFull;
                    return false;
                }
                pushCir(lane_idx, ctx, static_cast<RegId>(r),
                        ctx.regs.get(static_cast<RegId>(r)));
            }
        }
    }
    completeIteration(ctx);
    return true;
}

Stall
LpsuEngine::execInst(unsigned lane_idx, Context &ctx)
{
    const size_t index = (ctx.pc - si.bodyStart) / 4;
    XL_ASSERT(index < si.body.size(), "lane pc escaped the loop body");
    const Instruction &inst = si.body[index];

    if (inst.op == Op::HALT)
        fatal("halt inside an xloop body");

    // First issue after a squash: close the squash/replay pair.
    if (ctx.pendingReplay) {
        ctx.pendingReplay = false;
        XTRACE(tr, absCycle(), TraceComp::Lane, lane_idx,
               TraceKind::Replay, ctx.iter, 0);
    }

    // 1. CIR consumption: the first read of a CIR in an iteration
    //    takes the value from the inbound CIB (or stalls).
    RegId srcs[2];
    const unsigned numSrcs = inst.srcRegs(srcs);
    if (si.ordersRegisters()) {
        for (unsigned i = 0; i < numSrcs; i++) {
            const RegId r = srcs[i];
            if (!si.isCir[r] || ctx.cirConsumed[r])
                continue;
            if (ctx.cirWritten[r])
                continue;  // body wrote first: use its own value
            const auto value = cibIn(lane_idx).consume(r, ctx.iter);
            if (!value)
                return Stall::Cir;
            ctx.regs.set(r, *value);
            ctx.snapshot.set(r, *value);
            ctx.cirConsumed[r] = true;
            ctx.regReady[r] = cycle;
            stats.add("cib_consumes");
        }
    }

    // 2. RAW hazards against the lane scoreboard.
    for (unsigned i = 0; i < numSrcs; i++)
        if (ctx.regReady[srcs[i]] > cycle)
            return Stall::Raw;

    // 3. Early CIB push pre-check (xloop.or only; see finishBody for
    //    the orm commit-time path).
    const RegId dst = inst.destReg();
    const bool earlyPush =
        si.pattern == LoopPattern::OR && dst < numArchRegs &&
        si.isCir[dst] && ctx.pc == si.lastCirWritePc[dst] &&
        si.earlyPushOk[dst] && !ctx.cirPushed[dst];
    if (earlyPush && (cibOut(lane_idx).full(dst) ||
                      (inj.enabled() && inj.forceCibFull())))
        return Stall::CibFull;

    // 4. Resource checks.
    const bool spec = si.ordersMemory() && ctx.iter != nextToCommit;
    bool usePort = false;
    Addr memAddr = 0;
    if (inst.isLlfu() && !llfuRequest(inst))
        return Stall::Llfu;
    if (inst.isMem()) {
        if (inst.isAmo())
            memAddr = ctx.regs.get(inst.rs1);
        else
            memAddr = static_cast<Addr>(ctx.regs.get(inst.rs1) + inst.imm);

        if (spec) {
            if (inst.isAmo())
                return Stall::AmoWait;
            if (inst.isStore()) {
                if (ctx.lsq.storesFull() ||
                    (inj.enabled() && inj.forceLsqFull()))
                    return Stall::LsqFull;
            } else {
                if (ctx.lsq.loadsFull() ||
                    (inj.enabled() && inj.forceLsqFull()))
                    return Stall::LsqFull;
                if (!ctx.lsq.fullyCovered(memAddr, inst.op == Op::LW ? 4 :
                                          (inst.op == Op::LH ||
                                           inst.op == Op::LHU) ? 2 : 1)) {
                    if (memPortsLeft == 0)
                        return Stall::MemPort;
                    usePort = true;
                }
            }
        } else {
            if (memPortsLeft == 0)
                return Stall::MemPort;
            usePort = true;
        }
    }

    // 5. Execute.
    LaneMem laneMem;
    laneMem.mem = &mem;
    laneMem.lsq = &ctx.lsq;
    laneMem.buffered = spec;
    laneMem.crossLane = cfg.interLaneForwarding;
    std::vector<const LaneLsq *> older;
    if (spec && cfg.interLaneForwarding) {
        for (const auto &lane : lanes)
            for (const auto &other : lane.ctxs)
                if (other.active && other.iter < ctx.iter)
                    older.push_back(&other.lsq);
        laneMem.olderLsqs = &older;
    }

    const StepResult step =
        ExecCore::step(inst, ctx.pc, ctx.regs, laneMem, cycle);
    laneInsts++;
    ctx.iterInsts++;
    stats.add("lane_insts");
    stats.add("ib_accesses");
    bool lsqOverflow = laneMem.overflowed;
    if (spec && inst.isLoad()) {
        if (ctx.lsq.pushLoad(step.memAddr, step.memSize,
                             laneMem.lastLoadValue))
            stats.add("lsq_loads");
        else
            lsqOverflow = true;
    }
    if (lsqOverflow) {
        // Structural overflow mid-instruction (only reachable under
        // injected pressure or future capacity changes): the
        // iteration's effects are still fully buffered, so squash
        // and retry instead of aborting the simulation. After a few
        // retries the context holds until it is the committing
        // iteration, which needs no buffering (see tickContext).
        stats.add("lsq_overflow_squashes");
        squash(ctx);
        ctx.overflowSquashes++;
        return Stall::LsqFull;
    }
    if (spec && inst.isStore())
        stats.add("lsq_stores");

    // 6. Timing.
    Cycle latency = inst.traits().latency;
    if (usePort) {
        memPortsLeft--;
        const bool isWrite = inst.isStore() || inst.isAmo();
        Cycle dlat = dcache.access(step.memAddr, isWrite);
        if (inj.enabled()) {
            const Cycle jitter = inj.memJitter();
            if (jitter > 0)
                stats.add("injected_jitter_cycles", jitter);
            dlat += jitter;
        }
        latency = 1 + dlat;  // AGEN + memory
        stats.add("lane_mem_accesses");
    }
    if (dst < numArchRegs) {
        ctx.regReady[dst] = cycle + latency;
        if (si.ordersRegisters() && si.isCir[dst])
            ctx.cirWritten[dst] = true;
    }

    // 7. Side channels: store broadcast, CIR push, dynamic bound.
    if (!spec && si.ordersMemory() && step.memAccess &&
        (inst.isStore() || inst.isAmo())) {
        broadcastStore(step.memAddr, step.memSize, ctx.iter);
    }
    if (earlyPush)
        pushCir(lane_idx, ctx, dst, ctx.regs.get(dst));
    if (si.dynamicBound && dst == si.boundReg) {
        const i64 newBound = static_cast<i32>(ctx.regs.get(si.boundReg));
        if (newBound > bound) {
            bound = newBound;
            stats.add("bound_updates");
        }
    }

    // 8. Control flow.
    ctx.busyUntil = cycle + 1 +
                    (step.branchTaken ? cfg.branchBubble : 0);
    ctx.pc = step.nextPc;
    if (ctx.pc == si.bodyEnd) {
        ctx.bodyDone = true;
    } else if (ctx.pc < si.bodyStart || ctx.pc > si.bodyEnd) {
        fatal("xloop body branched outside [L, xloop)");
    }
    // Superscalar lanes may issue another instruction this cycle
    // unless control flow redirected or the iteration ended.
    dualEligible = !step.branchTaken && !ctx.bodyDone;
    return Stall::None;
}

Stall
LpsuEngine::tickContext(unsigned lane_idx, Context &ctx)
{
    dualEligible = false;
    const bool serialized =
        si.ordersMemory() && serializedUntil > cycle;
    if (!ctx.active) {
        // Storm serialization: only the committing iteration may
        // start while the backoff window is open.
        if (serialized && orderedDispatch() &&
            lanes[lane_idx].laneNextIter[0] != nextToCommit)
            return Stall::Idle;
        const auto iter = nextIterFor(lane_idx);
        if (!iter)
            return Stall::Idle;
        activate(lanes[lane_idx], ctx, *iter);
        return Stall::None;
    }
    if (ctx.busyUntil > cycle)
        return Stall::None;  // pipeline occupied: counted as exec
    if (serialized && ctx.iter != nextToCommit)
        return Stall::CommitWait;  // hold speculation during the storm
    // Bounded retry after LSQ-overflow squashes: stop burning retries
    // and wait until this context is the committing iteration (which
    // executes unbuffered and cannot overflow).
    if (ctx.overflowSquashes >= 2 && si.ordersMemory() &&
        ctx.iter != nextToCommit)
        return Stall::LsqFull;

    // Mid-iteration promotion: drain buffered stores before the now
    // non-speculative lane touches memory directly.
    if (si.ordersMemory() && ctx.iter == nextToCommit &&
        ctx.lsq.hasStores()) {
        if (memPortsLeft == 0)
            return Stall::MemPort;
        memPortsLeft--;
        const LsqAccess st = ctx.lsq.popOldestStore();
        mem.write(st.addr, st.size, st.value);
        dcache.access(st.addr, true);
        stats.add("lsq_drain_stores");
        XTRACE(tr, absCycle(), TraceComp::Lsq, lane_idx,
               TraceKind::LsqDrain, static_cast<i64>(st.addr), ctx.iter);
        broadcastStore(st.addr, st.size, ctx.iter);
        if (!ctx.lsq.hasStores())
            ctx.lsq.clearLoads();  // non-speculative now
        return Stall::None;
    }

    if (ctx.bodyDone) {
        Stall stall = Stall::None;
        finishBody(lane_idx, ctx, stall);
        return stall;
    }
    return execInst(lane_idx, ctx);
}

/**
 * Attribute one lane-cycle to its outcome (busy or one stall kind) in
 * the per-loop profile and maintain the per-lane stall slice for the
 * trace: a slice opens when the stall kind changes and is emitted —
 * stamped at its end cycle, duration in a1 — when it closes. Exactly
 * one call per lane per engine cycle keeps the profiler invariant
 * busyCycles + sum(stallCycles) == lanes * engineCycles.
 */
void
LpsuEngine::observeLaneCycle(unsigned lane_idx, Stall outcome)
{
    if (prof) {
        if (outcome == Stall::None)
            prof->busyCycles++;
        else
            prof->stallCycles[static_cast<size_t>(outcome)]++;
    }
#ifndef XLOOPS_TRACE_DISABLED
    if (!tr || !tr->enabled())
        return;
    StallObs &obs = laneObs[lane_idx];
    if (obs.kind == outcome)
        return;
    if (obs.kind != Stall::None) {
        tr->emit(absCycle(), TraceComp::Lane, lane_idx,
                 TraceKind::LaneStall, static_cast<i64>(obs.kind),
                 static_cast<i64>(cycle - obs.since));
    }
    obs.kind = outcome;
    obs.since = cycle;
#endif
}

/** Occupancy histograms: profiler-gated so stats stay byte-identical
 *  when no observer is attached. */
void
LpsuEngine::observeOccupancy()
{
    if (!prof)
        return;
    u64 cibOcc = 0;
    for (const auto &cib : cibs)
        for (unsigned r = 1; r < numArchRegs; r++)
            cibOcc += cib.perReg[r].size();
    u64 lsqOcc = 0;
    for (const auto &lane : lanes)
        for (const auto &ctx : lane.ctxs)
            lsqOcc += ctx.lsq.numLoads() + ctx.lsq.numStores();
    prof->cibOccupancy.sample(cibOcc);
    prof->lsqOccupancy.sample(lsqOcc);
}

/** Close any stall slice still open when the engine drains. */
void
LpsuEngine::flushStallSlices()
{
#ifndef XLOOPS_TRACE_DISABLED
    if (!tr || !tr->enabled())
        return;
    for (unsigned l = 0; l < laneObs.size(); l++) {
        StallObs &obs = laneObs[l];
        if (obs.kind != Stall::None && cycle > obs.since) {
            tr->emit(absCycle(), TraceComp::Lane, l, TraceKind::LaneStall,
                     static_cast<i64>(obs.kind),
                     static_cast<i64>(cycle - obs.since));
        }
        obs.kind = Stall::None;
    }
#endif
}

LpsuResult
LpsuEngine::run()
{
    LpsuResult res;

    std::vector<unsigned> order(cfg.lanes);
    std::iota(order.begin(), order.end(), 0);

    while (!done()) {
        if (cycle > lpsuCycleLimit) {
            throw SimError(
                SimErrorKind::CycleLimit,
                strf("LPSU specialized execution exceeded ",
                     lpsuCycleLimit, " cycles"),
                snapshotState("lpsu cycle-limit valve"));
        }
        if (cfg.watchdogCycles > 0 &&
            cycle > lastCommitCycle + cfg.watchdogCycles) {
            throw SimError(
                SimErrorKind::Watchdog,
                strf("no iteration committed for ", cfg.watchdogCycles,
                     " cycles (", completed, " committed so far)"),
                snapshotState("lpsu no-commit watchdog"));
        }
        memPortsLeft = cfg.memPorts;

        if (stormFallbackPending)
            beginStormFallback();
        if (migratePending)
            capDispatchForMigration();
        if (inj.enabled())
            injectFaultsThisCycle();

        // Priority: ordered patterns give the non-speculative (lowest
        // iteration) lane first pick; uc rotates for fairness.
        if (orderedDispatch()) {
            std::sort(order.begin(), order.end(),
                      [this](unsigned a, unsigned b) {
                          auto key = [this](unsigned l) {
                              const auto &ctx = lanes[l].ctxs[0];
                              return ctx.active ? ctx.iter
                                                : std::numeric_limits<i64>::max();
                          };
                          return key(a) < key(b);
                      });
        } else {
            std::iota(order.begin(), order.end(), 0);
            std::rotate(order.begin(),
                        order.begin() + (cycle % cfg.lanes), order.end());
        }

        for (const unsigned laneIdx : order) {
            Lane &lane = lanes[laneIdx];
            // Vertical MT: try contexts round-robin; the first that
            // makes progress owns the issue slot this cycle.
            Stall firstStall = Stall::Idle;
            bool progressed = false;
            bool sawBusy = false;
            for (unsigned c = 0; c < lane.ctxs.size(); c++) {
                Context &ctx = lane.ctxs[(lane.rr + c) % lane.ctxs.size()];
                if (ctx.active && ctx.busyUntil > cycle) {
                    sawBusy = true;
                    continue;
                }
                const Stall stall = tickContext(laneIdx, ctx);
                ctx.lastStall = stall;
                if (stall == Stall::None) {
                    progressed = true;
                    lane.rr = (lane.rr + c + 1) % lane.ctxs.size();
                    // Superscalar lanes (extension): keep issuing from
                    // the same context within this cycle. No same-cycle
                    // bypass: a dependent instruction still waits.
                    for (unsigned extra = 1;
                         extra < cfg.laneIssueWidth && dualEligible &&
                         ctx.active && !ctx.bodyDone;
                         extra++) {
                        dualEligible = false;
                        if (execInst(laneIdx, ctx) != Stall::None)
                            break;
                        stats.add("lane_multi_issues");
                    }
                    break;
                }
                if (firstStall == Stall::Idle)
                    firstStall = stall;
            }
            if (progressed || sawBusy) {
                stats.add("lane_exec_cycles");
                observeLaneCycle(laneIdx, Stall::None);
            } else {
                stats.add(stallCounter(firstStall));
                observeLaneCycle(laneIdx, firstStall);
            }
        }
        observeOccupancy();
        cycle++;
    }
    flushStallSlices();
    if (prof) {
        prof->specIters += completed;
        prof->engineCycles += cycle;
    }

    res.execCycles = cycle;
    res.iterations = completed;
    res.laneInsts = laneInsts;
    res.squashes = squashes;
    res.finalIdx = static_cast<i32>(effBound() - 1);
    res.finalBound = static_cast<i32>(bound);
    res.boundReached = effBound() >= bound;
    if (stormFellBack) {
        // Partial progress is handed back exactly (index, bound,
        // CIRs, MIVs below); the caller resumes traditionally.
        res.fellBack = true;
        res.reason = FallbackReason::SquashStorm;
    }

    // Architectural hand-back: CIR values of the last iteration, the
    // (possibly grown) bound, the loop index, and the materialized
    // mutual induction variables. MIV write-back keeps xi pointers
    // consistent when execution migrates back to the GPP (adaptive
    // profiling) or when code continues from the post-loop values the
    // traditional path would have produced: the LMU computes
    // liveIn + increment x (iterations executed), the same narrow
    // multiply it uses per iteration.
    for (unsigned r = 1; r < numArchRegs; r++)
        if (finalCirValid[r])
            liveIns.set(static_cast<RegId>(r), finalCir[r]);
    const i64 idx0 = startIdx - 1;
    const i64 mivDelta = res.finalIdx - idx0;
    for (unsigned r = 1; r < numArchRegs; r++) {
        if (si.isMiv[r]) {
            liveIns.set(static_cast<RegId>(r),
                        liveIns.get(static_cast<RegId>(r)) +
                            static_cast<u32>(si.mivInc[r] * mivDelta));
        }
    }
    if (si.dataDepExit) {
        // The flag register carries the exiting iteration's value (or
        // zero when a capped profiling run stopped before any exit),
        // so the GPP's traditional re-execution of the xloop makes
        // the right decision.
        liveIns.set(si.boundReg, exitFlag);
    } else {
        liveIns.set(si.boundReg, static_cast<u32>(res.finalBound));
    }
    liveIns.set(si.idxReg, static_cast<u32>(res.finalIdx));
    stats.add("lpsu_exec_cycles", res.execCycles);
    return res;
}

} // namespace

// ---------------------------------------------------------------------
// Lpsu facade.
// ---------------------------------------------------------------------

Lpsu::Lpsu(const LpsuConfig &config, MainMemory &memory, L1Cache &dcache)
    : cfg(config), mem(memory), dcache(dcache), injector(config.faults)
{
}

LpsuResult
Lpsu::execute(const Program &prog, Addr xloopPc, RegFile &liveIns,
              u64 maxIters, Cycle traceBase)
{
    const ScanInfo si = scanXloop(prog, xloopPc, liveIns);

    LoopProfile *prof = profiler ? &profiler->loop(xloopPc) : nullptr;
    if (prof && prof->pattern.empty()) {
        prof->pattern = strf(patternName(si.pattern),
                             si.dynamicBound ? ".db" : "",
                             si.dataDepExit ? ".de" : "");
    }

    LpsuResult res;
    if (si.body.size() > cfg.ibEntries) {
        res.fellBack = true;
        res.reason = FallbackReason::BodyTooLarge;
        statGroup.add("ib_fallbacks");
        statGroup.add("lpsu_fallbacks");
        if (prof)
            prof->fallbacks++;
        return res;
    }

    const i64 idx0 = static_cast<i32>(liveIns.get(si.idxReg));
    i64 bound0 = static_cast<i32>(liveIns.get(si.boundReg));
    const i64 startIdx = idx0 + 1;
    if (si.dataDepExit) {
        // The "bound" register is an exit flag: run under a large
        // horizon until some committed iteration raises it.
        if (liveIns.get(si.boundReg) != 0) {
            res.finalIdx = static_cast<i32>(idx0);
            res.finalBound = static_cast<i32>(bound0);
            return res;  // the GPP's iteration already exited
        }
        bound0 = startIdx + (i64{1} << 40);
    }
    if (startIdx >= bound0 || maxIters == 0) {
        res.finalIdx = static_cast<i32>(idx0);
        res.finalBound = static_cast<i32>(bound0);
        res.boundReached = startIdx >= bound0;
        return res;
    }

    // Scan phase: write instructions (unless still resident from the
    // previous dynamic instance) and live-in registers, with one-time
    // renaming amortized over all iterations.
    Cycle scan = cfg.scanOverheadCycles + si.numLiveIns;
    if (residentPc != xloopPc) {
        scan += static_cast<Cycle>(si.body.size()) * cfg.scanCyclesPerInst;
        statGroup.add("scan_inst_writes", si.body.size());
        statGroup.add("scan_renames", si.body.size());
    }
    statGroup.add("scan_livein_writes", si.numLiveIns);
    statGroup.add("scans");
    residentPc = xloopPc;

    if (prof) {
        prof->invocations++;
        prof->scanCycles += scan;
    }
    XTRACE(tracer, traceBase + scan, TraceComp::Lmu, 0, TraceKind::ScanDone,
           static_cast<i64>(scan), static_cast<i64>(si.body.size()));
    LpsuEngine engine(cfg, mem, dcache, statGroup, injector, si, liveIns,
                      startIdx, bound0, maxIters, tracer, prof,
                      traceBase + scan);
    res = engine.run();

    // Architectural-corruption fault class: deliberately flip one bit
    // in a hand-back register. Unlike the timing fault classes this
    // breaks architectural equivalence — it exists so the lockstep
    // checker has a real, seed-reproducible divergence to catch.
    if (const u32 c = injector.corruptHandBack()) {
        const RegId reg = static_cast<RegId>(c >> 8);
        const u32 bit = c & 31;
        liveIns.set(reg, liveIns.get(reg) ^ (1u << bit));
        statGroup.add("arch_corruptions");
    }

    res.scanCycles = scan;
    statGroup.add("lpsu_scan_cycles", scan);
    return res;
}

void
Lpsu::saveState(JsonWriter &w) const
{
    if (residentPc == ~Addr{0})
        w.field("resident_pc", "none");
    else
        w.field("resident_pc", static_cast<u64>(residentPc));
    w.key("injector").beginObject();
    injector.saveState(w);
    w.endObject();
    w.key("stats").beginObject();
    statGroup.saveState(w);
    w.endObject();
}

void
Lpsu::loadState(const JsonValue &v)
{
    const JsonValue &rp = v.at("resident_pc");
    residentPc = rp.kind() == JsonValue::Kind::String ? ~Addr{0}
                                                      : rp.asU64();
    injector.loadState(v.at("injector"));
    statGroup.loadState(v.at("stats"));
}

} // namespace xloops
