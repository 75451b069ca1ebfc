#include "cpu/functional.h"

#include "common/log.h"

namespace xloops {

FuncResult
FunctionalExecutor::run(const Program &prog, u64 maxInsts)
{
    FuncResult result;
    const DecodedProgram &dec = prog.decoded();
    Addr pc = prog.entry;

    while (true) {
        const Instruction &inst = dec.fetch(pc);
        const StepResult step = ExecCore::step(inst, pc, regs, mem,
                                               result.dynInsts);
        result.dynInsts++;
        if (inst.isXloop())
            statGroup.add(Stat::XloopInsts);
        if (inst.isXi())
            statGroup.add(Stat::XiInsts);
        if (step.halted) {
            result.halted = true;
            break;
        }
        pc = step.nextPc;
        if (result.dynInsts >= maxInsts)
            fatal("functional execution exceeded instruction limit");
    }
    statGroup.set(Stat::DynInsts, result.dynInsts);
    return result;
}

} // namespace xloops
