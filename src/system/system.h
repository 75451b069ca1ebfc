/**
 * @file
 * The full XLOOPS system: a GPP (in-order or out-of-order) optionally
 * augmented with an LPSU, supporting the paper's three execution
 * modes — traditional, specialized, adaptive — over the same binary.
 */

#ifndef XLOOPS_SYSTEM_SYSTEM_H
#define XLOOPS_SYSTEM_SYSTEM_H

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "asm/program.h"
#include "common/stats.h"
#include "cpu/gpp.h"
#include "lpsu/lpsu.h"
#include "mem/memory.h"
#include "system/adaptive.h"
#include "system/config.h"

namespace xloops {

struct CapsuleContext;
class LockstepChecker;

/** How xloop instructions are executed. */
enum class ExecMode
{
    Traditional,   ///< xloop = branch, xi = add (any GPP)
    Specialized,   ///< hinted xloops run on the LPSU
    Adaptive,      ///< profile both, migrate to the winner
};

const char *execModeName(ExecMode mode);

/** Inverse of execModeName; throws FatalError for any other name. */
ExecMode execModeByName(const std::string &name);

/** Outcome of one program run. */
struct SysResult
{
    Cycle cycles = 0;
    u64 gppInsts = 0;
    u64 laneInsts = 0;
    u64 xloopsSpecialized = 0;
    StatGroup stats;  ///< merged gpp.*, lpsu.*, dcache.* counters
};

/**
 * Why a cooperative stop was requested (the nonzero values a
 * RunOptions::stopFlag may take); selects the SimErrorKind the run
 * dies with, which in turn drives exit codes and the service retry
 * taxonomy (Deadline retries, Interrupted/Cancelled never do).
 */
enum class StopCause : u32
{
    None = 0,
    Interrupted = 1,  ///< SIGINT/SIGTERM (exit 6, final checkpoint)
    Deadline = 2,     ///< service wall-clock watchdog fired
    Cancelled = 3,    ///< job cancelled by its submitter
};

/** Robustness options of one run (all off by default). */
struct RunOptions
{
    /** Differential lockstep verification: shadow-execute the golden
     *  functional model and compare architectural state at every
     *  commit and xloop sync point (DivergenceError on mismatch). */
    bool lockstep = false;

    /** Take a checkpoint every N committed GPP instructions
     *  (0 disables). */
    u64 checkpointEvery = 0;

    /** Resume from this checkpoint document before executing. The
     *  library never touches the filesystem for checkpoints: callers
     *  read the file (xsim --restore), the journal (xloopsd recovery)
     *  or the capsule (replay). */
    std::string restoreText;

    /** Receives each checkpoint's serialized text: xsim writes
     *  "<prefix>-<inst>.json" files, xloopsd its recovery file, and
     *  replay bisection holds checkpoints in memory. */
    std::function<void(u64 instCount, const std::string &json)>
        checkpointSink;

    /**
     * Cooperative stop flag, polled once per committed GPP
     * instruction (an LPSU-owned loop finishes its slice first, so
     * the stop lands at the next GPP commit boundary). When it
     * becomes nonzero the run takes a final checkpoint (when a
     * checkpoint sink is set) and throws a SimError
     * whose kind matches the StopCause — signal handlers and the
     * service watchdog write it from other threads.
     */
    const std::atomic<u32> *stopFlag = nullptr;

    /** When set, filled with what a replay capsule needs: the program,
     *  the memory image the run starts from, and the run's latest
     *  checkpoint (kept current even when the run throws, so a caller
     *  can write a capsule from its catch site). Null copies nothing. */
    CapsuleContext *capsule = nullptr;
};

class XloopsSystem
{
  public:
    explicit XloopsSystem(const SysConfig &config);

    /** Copy program text+data into system memory. */
    void loadProgram(const Program &prog);

    /** The functional memory (for kernel input setup / output checks). */
    MainMemory &memory() { return mem; }

    /**
     * Run @p prog from entry to halt under @p mode.
     * The caller must have loaded the program (and any input data).
     */
    SysResult run(const Program &prog, ExecMode mode,
                  u64 maxInsts = 500'000'000);

    /** run() with lockstep / checkpoint / restore options. */
    SysResult run(const Program &prog, ExecMode mode, u64 maxInsts,
                  const RunOptions &opts);

    /** The most recent checkpoint of the current/last run (empty when
     *  none was taken): capsules embed it as the replay start point. */
    const std::string &lastCheckpoint() const { return lastCkptText; }
    u64 lastCheckpointInst() const { return lastCkptInst; }

    const SysConfig &config() const { return cfg; }
    GppModel &gppModel() { return *gpp; }
    Lpsu &lpsuModel() { return *lpsu; }

    /**
     * Attach structured observers: a cycle-accurate event tracer and
     * a per-loop profiler (either may be null). Observers never alter
     * timing or statistics — stats dumps are byte-identical with and
     * without them.
     */
    void setObserver(Tracer *tracer, LoopProfiler *profiler);

  private:
    /** The in-flight state of one run() (checkpointable between any
     *  two committed instructions). */
    struct RunState
    {
        RegFile regs;
        Addr pc = 0;
        ExecMode mode = ExecMode::Traditional;
        SysResult result;
        bool halted = false;
    };

    /** Serialize the complete machine + run state ("xloops-ckpt-1"):
     *  defined in system/checkpoint.cc. */
    std::string checkpointText(const Program &prog, const RunState &rs,
                               const LockstepChecker *checker) const;

    /** Inverse of checkpointText (validates schema, config name, mode
     *  and program hash). */
    void restoreCheckpoint(const JsonValue &v, const Program &prog,
                           RunState &rs, LockstepChecker *checker);

    /** Take one checkpoint: remember it (also in the capsule context,
     *  when one is set) and feed the sink. */
    void takeCheckpoint(const Program &prog, const RunState &rs,
                        const LockstepChecker *checker,
                        const RunOptions &opts);

    /** Run LPSU specialized execution for the xloop at @p pc;
     *  returns false when the LPSU fell back (body too large). */
    bool specialize(const Program &prog, Addr pc, RegFile &regs,
                    u64 maxIters, SysResult &result);

    /** Adaptive pre-execution hook for a hinted xloop. */
    void adaptivePre(const Program &prog, Addr pc, RegFile &regs,
                     SysResult &result);

    /** Adaptive post-execution profiling bookkeeping. */
    void adaptivePost(Addr pc, bool branchTaken);

    /** Degradation state for an xloop that hit a squash storm: the
     *  loop runs traditionally for `remaining` further encounters,
     *  and each new storm doubles the next cooldown (exponential
     *  backoff, capped). */
    struct StormCooldown
    {
        unsigned level = 0;
        u64 remaining = 0;
    };

    SysConfig cfg;
    MainMemory mem;
    std::unique_ptr<GppModel> gpp;
    std::unique_ptr<Lpsu> lpsu;
    AdaptiveController apt;
    std::set<Addr> fallbackPcs;  ///< xloops whose body exceeded the IB
    std::map<Addr, StormCooldown> stormCooldowns;
    Tracer *tracer = nullptr;
    LoopProfiler *profiler = nullptr;
    std::string lastCkptText;
    u64 lastCkptInst = 0;
};

} // namespace xloops

#endif // XLOOPS_SYSTEM_SYSTEM_H
