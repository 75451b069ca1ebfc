#include "system/system.h"

#include <algorithm>

#include "common/json.h"
#include "common/log.h"
#include "common/sim_error.h"
#include "system/capsule.h"
#include "system/lockstep.h"

namespace xloops {

const char *
execModeName(ExecMode mode)
{
    switch (mode) {
      case ExecMode::Traditional: return "T";
      case ExecMode::Specialized: return "S";
      case ExecMode::Adaptive: return "A";
    }
    return "?";
}

ExecMode
execModeByName(const std::string &name)
{
    for (const ExecMode mode : {ExecMode::Traditional,
                                ExecMode::Specialized, ExecMode::Adaptive})
        if (name == execModeName(mode))
            return mode;
    fatal(strf("unknown execution mode '", name, "': must be T, S, or A"));
}

XloopsSystem::XloopsSystem(const SysConfig &config)
    : cfg(config), gpp(makeGppModel(config.gpp))
{
    if (cfg.hasLpsu)
        lpsu = std::make_unique<Lpsu>(cfg.lpsu, mem, gpp->dcacheModel());
}

void
XloopsSystem::loadProgram(const Program &prog)
{
    prog.loadInto(mem);
}

void
XloopsSystem::setObserver(Tracer *t, LoopProfiler *p)
{
    tracer = t;
    profiler = p;
    gpp->setTracer(t);
    if (lpsu) {
        lpsu->setTracer(t);
        lpsu->setProfiler(p);
    }
}

bool
XloopsSystem::specialize(const Program &prog, Addr pc, RegFile &regs,
                         u64 maxIters, SysResult &result)
{
    if (fallbackPcs.count(pc))
        return false;  // known oversized body: stay traditional
    const auto cooldown = stormCooldowns.find(pc);
    if (cooldown != stormCooldowns.end() &&
        cooldown->second.remaining > 0) {
        // Degraded: a recent squash storm demoted this loop to
        // traditional execution for a backed-off number of
        // encounters (one encounter per traditional iteration).
        cooldown->second.remaining--;
        return false;
    }
    const Cycle before = gpp->now();
    const LpsuResult lr = lpsu->execute(prog, pc, regs, maxIters, before);
    if (lr.fellBack && lr.reason == FallbackReason::BodyTooLarge) {
        fallbackPcs.insert(pc);
        return false;
    }
    // The GPP stalls while the LPSU owns the loop (scan + execution).
    gpp->advanceTo(before + lr.scanCycles + lr.execCycles);
    XTRACE(tracer, before + lr.scanCycles + lr.execCycles, TraceComp::Gpp,
           0, TraceKind::XloopSlice, static_cast<i64>(pc),
           static_cast<i64>(lr.scanCycles + lr.execCycles));
    result.laneInsts += lr.laneInsts;
    if (lr.iterations > 0)
        result.xloopsSpecialized++;
    if (lr.fellBack && lr.reason == FallbackReason::SquashStorm) {
        // Partial progress was handed back exactly; back off before
        // trying specialization on this loop again (exponentially,
        // so a pathologically conflicting loop converges on
        // traditional execution).
        StormCooldown &sc = stormCooldowns[pc];
        sc.level = std::min(sc.level + 1, 12u);
        sc.remaining = u64{1} << sc.level;
    }
    return true;
}

void
XloopsSystem::adaptivePre(const Program &prog, Addr pc, RegFile &regs,
                          SysResult &result)
{
    AptEntry &entry = apt.lookup(pc);
    switch (entry.state) {
      case AptEntry::State::DecidedGpp:
        return;  // traditional execution won; stay on the GPP

      case AptEntry::State::DecidedLpsu:
        specialize(prog, pc, regs, ~u64{0}, result);
        return;

      case AptEntry::State::ProfileGpp: {
        if (!apt.profilingDone(entry))
            return;  // keep measuring traditional iterations
        // GPP profiling phase complete: scan, then run the LPSU
        // profiling phase for the same number of iterations.
        const u64 profIters = entry.gppIters;
        const Cycle before = gpp->now();
        const LpsuResult lr =
            lpsu->execute(prog, pc, regs, profIters, before);
        if (lr.fellBack) {
            entry.state = AptEntry::State::DecidedGpp;
            return;
        }
        gpp->advanceTo(before + lr.scanCycles + lr.execCycles);
        XTRACE(tracer, before + lr.scanCycles + lr.execCycles,
               TraceComp::Gpp, 0, TraceKind::XloopSlice,
               static_cast<i64>(pc),
               static_cast<i64>(lr.scanCycles + lr.execCycles));
        result.laneInsts += lr.laneInsts;

        // Compare cycles-per-iteration of the two phases.
        const double gppRate = static_cast<double>(entry.gppCycles) /
                               static_cast<double>(entry.gppIters);
        const double lpsuRate =
            lr.iterations == 0
                ? gppRate + 1.0
                : static_cast<double>(lr.execCycles) /
                      static_cast<double>(lr.iterations);
        const bool choseLpsu = lpsuRate <= gppRate;
        XTRACE(tracer, gpp->now(), TraceComp::Sys, choseLpsu ? 1 : 0,
               TraceKind::AdaptiveDecide,
               static_cast<i64>(gppRate * 1000.0),
               static_cast<i64>(lpsuRate * 1000.0));
        if (profiler) {
            profiler->loop(pc).migrations.push_back(
                {gpp->now(), gppRate, lpsuRate, choseLpsu});
        }
        if (choseLpsu) {
            entry.state = AptEntry::State::DecidedLpsu;
            // Finish the remaining iterations on the LPSU now.
            specialize(prog, pc, regs, ~u64{0}, result);
        } else {
            // Migrate back: regs already hold the hand-back state
            // (index, bound, CIRs); the GPP resumes the loop.
            entry.state = AptEntry::State::DecidedGpp;
        }
        return;
      }
    }
}

void
XloopsSystem::adaptivePost(Addr pc, bool branch_taken)
{
    AptEntry &entry = apt.lookup(pc);
    if (entry.state != AptEntry::State::ProfileGpp)
        return;
    const Cycle now = gpp->now();
    if (entry.lastVisitValid) {
        entry.gppCycles += now - entry.lastVisit;
        entry.gppIters++;
    }
    entry.lastVisit = now;
    entry.lastVisitValid = branch_taken;  // loop exit breaks the chain
}

SysResult
XloopsSystem::run(const Program &prog, ExecMode mode, u64 maxInsts)
{
    return run(prog, mode, maxInsts, RunOptions{});
}

SysResult
XloopsSystem::run(const Program &prog, ExecMode mode, u64 maxInsts,
                  const RunOptions &opts)
{
    if (mode != ExecMode::Traditional && !cfg.hasLpsu)
        fatal(strf("configuration '", cfg.name, "' has no LPSU"));

    if (opts.capsule) {
        // The starting image includes input data written after the
        // program load, which a Program alone cannot reproduce.
        opts.capsule->valid = true;
        opts.capsule->program = prog;
        opts.capsule->initialMem.copyFrom(mem);
        opts.capsule->lastCheckpoint.clear();
        opts.capsule->lastCheckpointInst = 0;
    }

    gpp->reset();
    apt.reset();
    fallbackPcs.clear();
    stormCooldowns.clear();
    if (lpsu)
        lpsu->reset();

    RunState rs;
    rs.pc = prog.entry;
    rs.mode = mode;

    std::unique_ptr<LockstepChecker> checker;
    if (opts.lockstep) {
        checker = std::make_unique<LockstepChecker>(prog);
        checker->start(mem, prog.entry);
    }

    lastCkptText.clear();
    lastCkptInst = 0;

    if (!opts.restoreText.empty())
        restoreCheckpoint(jsonParse(opts.restoreText), prog, rs,
                          checker.get());

    // Next checkpoint boundary (strictly after the restored position,
    // so a restored run never re-writes the checkpoint it came from).
    u64 nextCkpt =
        opts.checkpointEvery
            ? (rs.result.gppInsts / opts.checkpointEvery + 1) *
                  opts.checkpointEvery
            : ~u64{0};

    const DecodedProgram &dec = prog.decoded();
    while (!rs.halted) {
        const Instruction &inst = dec.fetch(rs.pc);

        if (inst.isXloop() && inst.hint && cfg.hasLpsu &&
            mode != ExecMode::Traditional) {
            // xloop-entry sync point: the LPSU is about to (possibly)
            // take the loop; the shadow must agree on the state the
            // specialized iterations start from.
            if (checker)
                checker->checkEntry(rs.pc, rs.regs, mem,
                                    rs.result.gppInsts);
            if (mode == ExecMode::Specialized)
                specialize(prog, rs.pc, rs.regs, ~u64{0}, rs.result);
            else
                adaptivePre(prog, rs.pc, rs.regs, rs.result);
            // xloop-exit sync point: re-execute the specialized
            // iterations traditionally on the shadow until its index
            // register meets the LPSU hand-back index, then compare.
            if (checker)
                checker->catchUp(rs.pc, inst.rd, rs.regs, mem,
                                 gpp->now(), rs.result.gppInsts);
            // Fall through: the xloop instruction itself always
            // executes traditionally (it now sees the post-LPSU
            // index/bound and exits or continues correctly).
        }

        const Cycle stepCycle = gpp->now();
        const StepResult step =
            ExecCore::step(inst, rs.pc, rs.regs, mem, stepCycle);
        gpp->retire(inst, rs.pc, step);
        rs.result.gppInsts++;
        if (checker) {
            checker->mirrorStep(rs.pc, step, rs.regs, mem, stepCycle,
                                rs.result.gppInsts);
        }

        if (inst.isXloop() && inst.hint && cfg.hasLpsu &&
            mode == ExecMode::Adaptive) {
            adaptivePost(rs.pc, step.branchTaken);
        }

        // A taken xloop back-branch is one traditionally executed
        // iteration (the LPSU accounts specialized ones itself).
        if (profiler && inst.isXloop() && step.branchTaken) {
            LoopProfile &lp = profiler->loop(rs.pc);
            lp.tradIters++;
            if (lp.pattern.empty())
                lp.pattern = patternName(inst.pattern());
        }

        if (step.halted) {
            rs.halted = true;
            break;
        }
        rs.pc = step.nextPc;

        if (rs.result.gppInsts >= nextCkpt) {
            takeCheckpoint(prog, rs, checker.get(), opts);
            nextCkpt += opts.checkpointEvery;
        }

        if (opts.stopFlag) {
            const u32 cause =
                opts.stopFlag->load(std::memory_order_relaxed);
            if (cause != 0) {
                // Cooperative stop (SIGINT, service deadline, job
                // cancellation): leave a final checkpoint at the exact
                // stop instruction so the run is resumable, then die
                // with the matching diagnosis.
                if (opts.checkpointSink)
                    takeCheckpoint(prog, rs, checker.get(), opts);
                SimErrorKind kind = SimErrorKind::Interrupted;
                if (cause == static_cast<u32>(StopCause::Deadline))
                    kind = SimErrorKind::Deadline;
                else if (cause == static_cast<u32>(StopCause::Cancelled))
                    kind = SimErrorKind::Cancelled;
                MachineSnapshot snap;
                snap.context = "cooperative stop request";
                snap.cycle = gpp->now();
                snap.gppPc = rs.pc;
                snap.gppInsts = rs.result.gppInsts;
                snap.occupancy.emplace_back("last_checkpoint_inst",
                                            lastCkptInst);
                if (tracer)
                    snap.recentEvents = tracer->lastEvents(16);
                throw SimError(kind,
                               strf("run stopped after ",
                                    rs.result.gppInsts,
                                    " instructions (",
                                    simErrorKindName(kind), ")"),
                               snap);
            }
        }

        if (rs.result.gppInsts >= maxInsts) {
            // A silent hang used to ride this valve into a bare
            // FatalError; dump the machine state so it is debuggable.
            MachineSnapshot snap;
            snap.context = "system instruction-limit valve";
            snap.cycle = gpp->now();
            snap.gppPc = rs.pc;
            snap.gppInsts = rs.result.gppInsts;
            snap.occupancy.emplace_back("xloops_specialized",
                                        rs.result.xloopsSpecialized);
            snap.occupancy.emplace_back("lane_insts",
                                        rs.result.laneInsts);
            if (tracer)
                snap.recentEvents = tracer->lastEvents(16);
            throw SimError(
                SimErrorKind::InstLimit,
                strf("system run exceeded ", maxInsts,
                     " instructions without halting (mode ",
                     execModeName(mode), ")"),
                snap);
        }
    }

    SysResult result = rs.result;
    result.cycles = gpp->now();
    result.stats.merge(gpp->stats());
    if (lpsu)
        result.stats.merge(lpsu->stats());
    result.stats.set("gpp_insts", result.gppInsts);
    result.stats.set("lane_insts_total", result.laneInsts);
    result.stats.set("cycles_total", result.cycles);
    return result;
}

void
XloopsSystem::takeCheckpoint(const Program &prog, const RunState &rs,
                             const LockstepChecker *checker,
                             const RunOptions &opts)
{
    lastCkptText = checkpointText(prog, rs, checker);
    lastCkptInst = rs.result.gppInsts;
    if (opts.capsule) {
        opts.capsule->lastCheckpoint = lastCkptText;
        opts.capsule->lastCheckpointInst = lastCkptInst;
    }
    if (opts.checkpointSink)
        opts.checkpointSink(rs.result.gppInsts, lastCkptText);
}

} // namespace xloops
