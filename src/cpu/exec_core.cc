#include "cpu/exec_core.h"

namespace xloops {

StepResult
ExecCore::step(const Instruction &inst, Addr pc, RegFile &regs,
               MemIface &mem, Cycle cycle)
{
    return stepOn(inst, pc, regs, mem, cycle);
}

} // namespace xloops
