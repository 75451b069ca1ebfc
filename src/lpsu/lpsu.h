/**
 * @file
 * The loop-pattern specialization unit (LPSU) — the paper's core
 * microarchitectural contribution (Section II-D).
 *
 * The LPSU augments a GPP with decoupled in-order lanes managed by a
 * lane management unit (LMU). Specialized execution has two phases:
 *
 *  - scan phase: the loop body [L, xloop) and the live-in registers
 *    are copied into per-lane instruction buffers / register files
 *    (with one-time register renaming); the LMU identifies
 *    cross-iteration registers (CIRs) and builds the mutual induction
 *    variable table (MIVT) from xi instructions.
 *  - specialized execution phase: the LMU hands iteration indices to
 *    lanes. uc iterations are dynamically load balanced; ordered
 *    patterns are distributed round-robin so neighbouring lanes hold
 *    neighbouring iterations. or/orm register dependences flow
 *    through cross-iteration buffers (CIBs); om/orm/ua iterations
 *    speculate on memory order with per-lane LSQs, a store-address
 *    broadcast network, and squash-and-restart recovery; *.db loops
 *    monotonically grow the bound through the LMU.
 *
 * The model is cycle-level: one shared memory port pool and LLFU pool
 * arbitrate among lanes each cycle, and per-lane scoreboards model
 * RAW stalls exactly as in a simple in-order pipe.
 */

#ifndef XLOOPS_LPSU_LPSU_H
#define XLOOPS_LPSU_LPSU_H

#include <array>
#include <vector>

#include "asm/program.h"
#include "common/fault.h"
#include "common/loop_profile.h"
#include "common/stats.h"
#include "common/trace.h"
#include "cpu/exec_core.h"
#include "lpsu/lsq.h"
#include "mem/cache.h"
#include "mem/memory.h"

namespace xloops {

/** LPSU configuration (paper Table III + Section IV-F DSE knobs). */
struct LpsuConfig
{
    unsigned lanes = 4;
    unsigned ibEntries = 128;       ///< instruction buffer capacity
    unsigned lsqLoadEntries = 8;
    unsigned lsqStoreEntries = 8;
    unsigned cibDepth = 4;          ///< cross-iteration buffer slots/CIR
    unsigned memPorts = 1;          ///< shared data-memory ports
    unsigned llfus = 1;             ///< shared long-latency FUs
    unsigned laneIssueWidth = 1;    ///< superscalar in-order lanes
                                    ///< (extension; paper future work)
    bool multithreading = false;    ///< 2-way vertical MT (uc only)
    bool interLaneForwarding = false; ///< aggressive cross-lane ld fwd
    unsigned scanCyclesPerInst = 1;
    unsigned scanOverheadCycles = 8;
    unsigned branchBubble = 1;      ///< taken-branch penalty in a lane

    // --- Robustness / graceful degradation ---------------------------

    /** Adversarial-schedule fault injection (disabled by default). */
    FaultConfig faults;

    /** No-commit watchdog: abort with a machine-state snapshot when no
     *  iteration commits for this many cycles (0 disables). */
    Cycle watchdogCycles = 1'000'000;

    /** Squash-storm detector: more than stormThreshold squashes inside
     *  a sliding stormWindow-cycle window serializes the lanes for an
     *  exponentially backed-off period; after maxStorms storms the
     *  LPSU abandons the loop and falls back to traditional execution
     *  at iteration granularity (the paper's always-correct escape
     *  hatch, now an explicit stat-counted mechanism). */
    unsigned stormWindow = 512;
    unsigned stormThreshold = 48;
    Cycle stormBackoffCycles = 128;  ///< first serialization period
    unsigned maxStorms = 3;          ///< storms before traditional fallback
};

/** Why the LPSU handed a loop back to the GPP before the bound. */
enum class FallbackReason : u8
{
    None,          ///< ran to the (possibly capped) bound
    BodyTooLarge,  ///< body exceeds the instruction buffers (static)
    SquashStorm,   ///< persistent squash storm: degrade to traditional
};

/** Result of one specialized xloop execution. */
struct LpsuResult
{
    bool fellBack = false;      ///< caller must continue the loop
                                ///< traditionally (see reason)
    FallbackReason reason = FallbackReason::None;
    Cycle scanCycles = 0;
    Cycle execCycles = 0;
    u64 iterations = 0;         ///< iterations executed (and committed)
    u64 laneInsts = 0;
    u64 squashes = 0;
    i32 finalIdx = 0;           ///< loop index to hand back to the GPP
    i32 finalBound = 0;         ///< bound (grows for *.db loops)
    bool boundReached = true;   ///< false when maxIters capped the run
};

/**
 * One loop-body instruction as the scan phase writes it into the
 * lanes' instruction buffers: the instruction plus every fact a lane
 * tests when it tries to issue it, derived once per scan.
 */
struct LaneOp
{
    Instruction inst;
    std::array<RegId, 2> srcs{};  ///< Instruction::srcRegs, in order
    u8 numSrcs = 0;
    RegId dst = numArchRegs;      ///< Instruction::destReg (none: 32)
    u8 latency = 0;               ///< OpTraits::latency
    u8 memSize = 0;               ///< OpMeta::memSize (0: no access)
    bool isLoad = false;
    bool isStore = false;
    bool isAmo = false;
    bool isMem = false;
    bool isLlfu = false;
    bool unpipelined = false;     ///< holds its LLFU for the full latency
    bool isHalt = false;
    bool dstIsCir = false;
    /** Static half of the xloop.or early CIB push: dst is a CIR, this
     *  is its last static write, and no backward branch can execute
     *  it again. The lane adds "not pushed yet this iteration". */
    bool earlyPush = false;
};

/** Static information the LMU derives during the scan phase. */
struct ScanInfo
{
    Addr bodyStart = 0;
    Addr bodyEnd = 0;           ///< address of the xloop instruction
    std::vector<LaneOp> ops;    ///< the body, one op per instruction
    LoopPattern pattern = LoopPattern::UC;
    bool dynamicBound = false;
    bool dataDepExit = false;   ///< extension: boundReg is an exit flag
    RegId idxReg = 0;
    RegId boundReg = 0;
    std::array<bool, numArchRegs> isCir{};
    std::array<Addr, numArchRegs> lastCirWritePc{};
    std::array<bool, numArchRegs> earlyPushOk{};
    std::array<bool, numArchRegs> isMiv{};
    std::array<i32, numArchRegs> mivInc{};
    unsigned numLiveIns = 0;
    unsigned numCirs = 0;

    bool ordersMemory() const
    {
        return pattern == LoopPattern::OM || pattern == LoopPattern::ORM ||
               pattern == LoopPattern::UA;
    }
    bool ordersRegisters() const
    {
        return pattern == LoopPattern::OR || pattern == LoopPattern::ORM;
    }
};

/**
 * Analyze the loop body of the xloop at @p xloopPc.
 * Exposed separately so compiler tests and the adaptive controller can
 * reuse the LMU's static analysis.
 */
ScanInfo scanXloop(const Program &prog, Addr xloopPc,
                   const RegFile &liveIns);

class Lpsu
{
  public:
    Lpsu(const LpsuConfig &config, MainMemory &memory, L1Cache &dcache);

    /**
     * Specialized execution of the xloop at @p xloopPc.
     *
     * On entry @p liveIns holds the GPP architectural state at the
     * xloop instruction; the GPP has just finished iteration
     * liveIns[idxReg]. The LPSU executes iterations
     * [idx+1, min(bound, idx+1+maxIters)) and updates memory, CIR
     * values, and (for *.db) the bound in @p liveIns.
     *
     * @param maxIters cap for adaptive profiling (default: unlimited)
     * @param traceBase absolute cycle the LPSU took ownership (trace
     *                  events are stamped on the system timeline)
     */
    LpsuResult execute(const Program &prog, Addr xloopPc, RegFile &liveIns,
                       u64 maxIters = ~u64{0}, Cycle traceBase = 0);

    const LpsuConfig &config() const { return cfg; }
    StatGroup &stats() { return statGroup; }
    const StatGroup &stats() const { return statGroup; }

    /** True when the pc was already resident in the instruction
     *  buffers (scan can skip re-writing instructions). */
    bool isResident(Addr xloopPc) const { return residentPc == xloopPc; }

    /** Forget buffered instructions and statistics (new run). Also
     *  re-seeds the fault injector so runs are reproducible. */
    void
    reset()
    {
        residentPc = ~Addr{0};
        statGroup.clear();
        injector = FaultInjector(cfg.faults);
    }

    /** The fault injector (for tests / tools inspecting injection). */
    const FaultInjector &faultInjector() const { return injector; }

    /** Emit structured trace events to @p t; nullptr disables. */
    void setTracer(Tracer *t) { tracer = t; }

    /** Roll per-loop statistics up into @p p; nullptr disables. */
    void setProfiler(LoopProfiler *p) { profiler = p; }

    /** Checkpoint capture/restore of buffer residency, statistics and
     *  the fault injector's RNG streams. */
    void saveState(JsonWriter &w) const;
    void loadState(const JsonValue &v);

  private:
    LpsuConfig cfg;
    MainMemory &mem;
    L1Cache &dcache;
    StatGroup statGroup;
    FaultInjector injector;
    Addr residentPc = ~Addr{0};
    Tracer *tracer = nullptr;
    LoopProfiler *profiler = nullptr;
};

} // namespace xloops

#endif // XLOOPS_LPSU_LPSU_H
