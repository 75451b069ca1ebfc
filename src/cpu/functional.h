/**
 * @file
 * Serial functional executor: ExecCore::step in a fetch loop. Executes
 * a program (including XLOOPS binaries, via traditional xloop
 * semantics) to completion and counts dynamic instructions per class.
 * It is the reference the threaded golden model (cpu/threaded.h) is
 * checked against: the dispatch glue of the two differs, the semantics
 * they expand do not.
 */

#ifndef XLOOPS_CPU_FUNCTIONAL_H
#define XLOOPS_CPU_FUNCTIONAL_H

#include "asm/program.h"
#include "common/stats.h"
#include "cpu/exec_core.h"
#include "mem/memory.h"

namespace xloops {

/** Result of a functional run. */
struct FuncResult
{
    u64 dynInsts = 0;
    bool halted = false;
};

/** Golden-model executor. */
class FunctionalExecutor
{
  public:
    explicit FunctionalExecutor(MainMemory &memory) : mem(memory) {}

    /**
     * Run @p prog from its entry until halt.
     *
     * @param maxInsts safety valve; throws FatalError when exceeded.
     */
    FuncResult run(const Program &prog, u64 maxInsts = 500'000'000);

    RegFile &regFile() { return regs; }
    StatGroup &stats() { return statGroup; }

  private:
    MainMemory &mem;
    RegFile regs;
    StatGroup statGroup;
};

} // namespace xloops

#endif // XLOOPS_CPU_FUNCTIONAL_H
