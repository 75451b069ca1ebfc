#include "system/lockstep.h"

#include <array>

#include "common/json.h"
#include "common/log.h"
#include "common/sim_error.h"
#include "lpsu/lpsu.h"

namespace xloops {

namespace {

/** Valve on shadow catch-up re-execution: a diverged index register
 *  must not spin the shadow forever. Generous: the largest registered
 *  kernel re-executes well under a million shadow instructions per
 *  specialized slice. */
constexpr u64 catchUpInstLimit = 200'000'000;

} // namespace

LockstepChecker::LockstepChecker(const Program &program) : prog(program)
{
}

void
LockstepChecker::start(const MainMemory &mainMem, Addr entry)
{
    regs = RegFile{};
    mem.copyFrom(mainMem);
    pc = entry;
    halted = false;
    numComparisons = 0;
    numShadowInsts = 0;
}

void
LockstepChecker::raise(const char *site, Addr atPc, u64 instIndex,
                       i64 iteration, const RegFile &mainRegs,
                       const MainMemory &mainMem, const bool *skip)
{
    DivergenceInfo info;
    info.site = site;
    info.pc = atPc;
    info.instIndex = instIndex;
    info.iteration = iteration;
    for (unsigned r = 1; r < numArchRegs; r++) {
        if (skip && skip[r])
            continue;
        const RegId reg = static_cast<RegId>(r);
        if (mainRegs.get(reg) != regs.get(reg)) {
            info.regMismatch = true;
            info.reg = reg;
            info.mainValue = mainRegs.get(reg);
            info.shadowValue = regs.get(reg);
            break;
        }
    }
    if (mainMem.digest() != mem.digest()) {
        const Addr addr = MainMemory::firstDifference(mainMem, mem);
        if (addr != ~Addr{0}) {
            info.memMismatch = true;
            info.memAddr = addr;
            // firstDifference names the byte; re-read both sides.
            MainMemory &mm = const_cast<MainMemory &>(mainMem);
            info.mainByte = static_cast<u8>(mm.read(addr, 1));
            info.shadowByte = static_cast<u8>(mem.read(addr, 1));
        }
    }

    MachineSnapshot snap;
    snap.context = strf("lockstep ", site, " comparison");
    snap.gppPc = atPc;
    snap.gppInsts = instIndex;
    snap.occupancy.emplace_back("lockstep_comparisons", numComparisons);
    snap.occupancy.emplace_back("shadow_insts", numShadowInsts);

    throw DivergenceError(
        strf("timing model diverged from the golden model at pc 0x",
             std::hex, atPc, std::dec, " (", site, " site)"),
        std::move(info), std::move(snap));
}

void
LockstepChecker::compare(const char *site, Addr atPc,
                         const RegFile &mainRegs,
                         const MainMemory &mainMem, u64 instIndex,
                         i64 iteration, const bool *skip)
{
    numComparisons++;
    bool regsEqual = true;
    for (unsigned r = 1; r < numArchRegs; r++) {
        if (skip && skip[r])
            continue;
        if (mainRegs.regs[r] != regs.regs[r]) {
            regsEqual = false;
            break;
        }
    }
    if (regsEqual && mainMem.digest() == mem.digest())
        return;
    raise(site, atPc, instIndex, iteration, mainRegs, mainMem, skip);
}

void
LockstepChecker::mirrorStep(Addr pc_, const StepResult &mainStep,
                            const RegFile &mainRegs,
                            const MainMemory &mainMem, Cycle cycle,
                            u64 instIndex)
{
    if (halted || pc != pc_) {
        // The shadow should always sit at the pc the timing model is
        // committing; a prior control divergence slipped through.
        raise("control", pc_, instIndex, -1, mainRegs, mainMem);
    }
    const Instruction &inst = prog.decoded().fetch(pc);
    const StepResult s = ExecCore::step(inst, pc, regs, mem, cycle);
    numShadowInsts++;
    if (s.nextPc != mainStep.nextPc || s.halted != mainStep.halted)
        raise("control", pc, instIndex, -1, mainRegs, mainMem);
    pc = s.nextPc;
    halted = s.halted;
    compare(halted ? "halt" : "post-inst", pc_, mainRegs, mainMem,
            instIndex, -1);
}

void
LockstepChecker::checkEntry(Addr xloopPc, const RegFile &mainRegs,
                            const MainMemory &mainMem, u64 instIndex)
{
    if (halted || pc != xloopPc)
        raise("xloop-entry", xloopPc, instIndex, -1, mainRegs, mainMem);
    compare("xloop-entry", xloopPc, mainRegs, mainMem, instIndex,
            static_cast<i64>(static_cast<i32>(
                mainRegs.get(prog.fetch(xloopPc).rd))));
}

void
LockstepChecker::catchUp(Addr xloopPc, RegId idxReg,
                         const RegFile &mainRegs,
                         const MainMemory &mainMem, Cycle cycle,
                         u64 instIndex)
{
    const u32 targetIdx = mainRegs.get(idxReg);
    u64 steps = 0;
    while (pc != xloopPc || regs.get(idxReg) != targetIdx) {
        if (halted || steps++ > catchUpInstLimit) {
            raise("xloop-exit", xloopPc, instIndex,
                  static_cast<i64>(static_cast<i32>(regs.get(idxReg))),
                  mainRegs, mainMem);
        }
        const Instruction &inst = prog.decoded().fetch(pc);
        const StepResult s = ExecCore::step(inst, pc, regs, mem, cycle);
        numShadowInsts++;
        pc = s.nextPc;
        halted = s.halted;
    }

    // The hand-back contract (see Lpsu): index, bound, CIRs, and MIVs
    // come back serial-exact and are compared, as is everything the
    // body never writes (untouched by either side) and all of memory.
    // Lane-private body temporaries are architecturally dead after a
    // specialized loop and are not handed back, so they are exempt
    // and the shadow adopts the timing model's (stale live-in) values
    // to keep every later per-instruction compare exact.
    const ScanInfo si = scanXloop(prog, xloopPc, regs);
    std::array<bool, numArchRegs> skip{};
    for (const LaneOp &op : si.ops)
        if (op.dst < numArchRegs)
            skip[op.dst] = true;
    skip[si.idxReg] = false;
    skip[si.boundReg] = false;
    for (unsigned r = 1; r < numArchRegs; r++)
        if (si.isCir[r] || si.isMiv[r])
            skip[r] = false;

    compare("xloop-exit", xloopPc, mainRegs, mainMem, instIndex,
            static_cast<i64>(static_cast<i32>(targetIdx)), skip.data());
    for (unsigned r = 1; r < numArchRegs; r++)
        if (skip[r])
            regs.set(static_cast<RegId>(r),
                     mainRegs.get(static_cast<RegId>(r)));
}

void
LockstepChecker::saveState(JsonWriter &w) const
{
    // State identity with the main machine is an invariant at every
    // checkpoint boundary (the preceding compare passed), so only the
    // checker's own counters are stored; restore re-clones the shadow
    // from the restored main state.
    w.field("comparisons", numComparisons);
    w.field("shadow_insts", numShadowInsts);
}

void
LockstepChecker::loadState(const JsonValue &v, const RegFile &mainRegs,
                           const MainMemory &mainMem, Addr mainPc)
{
    resume(mainRegs, mainMem, mainPc);
    numComparisons = v.at("comparisons").asU64();
    numShadowInsts = v.at("shadow_insts").asU64();
}

void
LockstepChecker::resume(const RegFile &mainRegs,
                        const MainMemory &mainMem, Addr mainPc)
{
    regs = mainRegs;
    mem.copyFrom(mainMem);
    pc = mainPc;
    halted = false;
    numComparisons = 0;
    numShadowInsts = 0;
}

} // namespace xloops
