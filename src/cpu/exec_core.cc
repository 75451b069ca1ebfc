#include "cpu/exec_core.h"

#include "common/log.h"

namespace xloops {

StepResult
ExecCore::step(const Instruction &inst, Addr pc, RegFile &regs,
               MemIface &mem, Cycle cycle)
{
    StepResult res;
    res.nextPc = pc + 4;

    switch (opMeta(inst.op).handler) {
#define XLOOPS_STEP_VALUE(name, ...)                                     \
      case OpHandler::name:                                              \
        regs.set(inst.rd, sem::name(regs.get(inst.rs1),                  \
                                    regs.get(inst.rs2), inst.imm));      \
        break;
#define XLOOPS_STEP_BRANCH(name, ...)                                    \
      case OpHandler::name:                                              \
        sem::branchIf(sem::name(regs.get(inst.rs1), regs.get(inst.rs2),  \
                                inst.imm),                               \
                      pc, inst.imm, res);                                \
        break;
#define XLOOPS_STEP_OTHER(name)                                          \
      case OpHandler::name:                                              \
        sem::name(inst, pc, regs, mem, cycle, res);                      \
        break;
      XLOOPS_HANDLER_LIST(XLOOPS_STEP_VALUE, XLOOPS_STEP_BRANCH,
                          XLOOPS_STEP_OTHER)
#undef XLOOPS_STEP_VALUE
#undef XLOOPS_STEP_BRANCH
#undef XLOOPS_STEP_OTHER
      case OpHandler::NumHandlers:
        panic("executed NumHandlers sentinel");
    }
    return res;
}

} // namespace xloops
