/**
 * @file
 * The functional semantics of the xrisc ISA: one architectural step.
 * Every engine (in-order GPP, out-of-order GPP, LPSU lanes, the
 * lockstep shadow) funnels execution through ExecCore::step, or for the
 * lanes its template ExecCore::stepOn, and the threaded golden model
 * (cpu/threaded.cc) expands the same sem:: handlers, so the instruction
 * semantics exist exactly once: the XLOOPS_HANDLER_LIST in
 * isa/op_meta.h plus the inline functions below.
 *
 * xloop instructions execute here with their *traditional* semantics
 * (increment-compare-branch) — the paper's minimal-decoder-change GPP
 * path. Specialized execution is layered on top by the LPSU, which
 * never lets a lane execute the xloop instruction itself.
 */

#ifndef XLOOPS_CPU_EXEC_CORE_H
#define XLOOPS_CPU_EXEC_CORE_H

#include <array>
#include <cmath>

#include "common/log.h"
#include "common/types.h"
#include "cpu/fp.h"
#include "isa/instruction.h"
#include "isa/op_meta.h"
#include "mem/memory.h"

namespace xloops {

/** Architectural register file; r0 reads as zero, writes discarded. */
class RegFile
{
  public:
    u32
    get(RegId reg) const
    {
        return reg == 0 ? 0 : regs[reg];
    }

    void
    set(RegId reg, u32 value)
    {
        if (reg != 0)
            regs[reg] = value;
    }

    std::array<u32, numArchRegs> regs{};
};

/** Outcome of one architectural step. */
struct StepResult
{
    Addr nextPc = 0;
    bool halted = false;
    bool branchTaken = false;   ///< valid for control instructions
    bool memAccess = false;
    Addr memAddr = 0;
    unsigned memSize = 0;
};

/**
 * One function per OpHandler, named after it. The table-shaped handlers
 * are expanded from XLOOPS_HANDLER_LIST; the others are written out
 * below. Each OTHER handler takes the instruction, its pc, the register
 * file, the memory and the cycle csrr observes, and reports control
 * flow and memory accesses in a StepResult whose nextPc the caller has
 * preset to pc + 4. They are templated on the memory type so the
 * threaded interpreter's concrete MainMemory accesses devirtualize.
 */
namespace sem {

#define XLOOPS_SEM_EXPR(type, name, ...)                                 \
    inline type                                                          \
    name(u32 a, u32 b, i32 imm)                                          \
    {                                                                    \
        [[maybe_unused]] const i32 sa = static_cast<i32>(a);             \
        [[maybe_unused]] const i32 sb = static_cast<i32>(b);             \
        [[maybe_unused]] const u32 ui = static_cast<u32>(imm);           \
        [[maybe_unused]] const float fa = fp::fromBits(a);               \
        [[maybe_unused]] const float fb = fp::fromBits(b);               \
        return __VA_ARGS__;                                              \
    }
#define XLOOPS_SEM_VALUE(name, ...) XLOOPS_SEM_EXPR(u32, name, __VA_ARGS__)
#define XLOOPS_SEM_BRANCH(name, ...) XLOOPS_SEM_EXPR(bool, name, __VA_ARGS__)
#define XLOOPS_SEM_OTHER(name)
XLOOPS_HANDLER_LIST(XLOOPS_SEM_VALUE, XLOOPS_SEM_BRANCH, XLOOPS_SEM_OTHER)
#undef XLOOPS_SEM_EXPR
#undef XLOOPS_SEM_VALUE
#undef XLOOPS_SEM_BRANCH
#undef XLOOPS_SEM_OTHER

/** Target of a taken branch, jal or xloop: @p imm words from @p pc. */
inline Addr
branchTarget(Addr pc, i32 imm)
{
    return static_cast<Addr>(static_cast<i64>(pc) + i64{imm} * 4);
}

/** Record a conditional branch's outcome in @p res. */
inline void
branchIf(bool taken, Addr pc, i32 imm, StepResult &res)
{
    res.branchTaken = taken;
    if (taken)
        res.nextPc = branchTarget(pc, imm);
}

/** Effective address rs1 + imm, wrapping mod 2^32. */
inline Addr
effAddr(const Instruction &i, const RegFile &regs)
{
    return regs.get(i.rs1) + static_cast<u32>(i.imm);
}

inline void
recordAccess(Addr addr, unsigned size, StepResult &res)
{
    res.memAccess = true;
    res.memAddr = addr;
    res.memSize = size;
}

template <class Mem>
inline void
Load(const Instruction &i, Addr, RegFile &regs, Mem &mem, Cycle,
     StepResult &res)
{
    const OpMeta &m = opMeta(i.op);
    const Addr addr = effAddr(i, regs);
    u32 v = mem.read(addr, m.memSize);
    if (m.memSigned)
        v = static_cast<u32>(signExtend(v, 8u * m.memSize));
    regs.set(i.rd, v);
    recordAccess(addr, m.memSize, res);
}

template <class Mem>
inline void
Store(const Instruction &i, Addr, RegFile &regs, Mem &mem, Cycle,
      StepResult &res)
{
    const unsigned size = opMeta(i.op).memSize;
    const Addr addr = effAddr(i, regs);
    mem.write(addr, size, regs.get(i.rs2));
    recordAccess(addr, size, res);
}

template <class Mem>
inline void
Amo(const Instruction &i, Addr, RegFile &regs, Mem &mem, Cycle,
    StepResult &res)
{
    const Addr addr = regs.get(i.rs1);
    regs.set(i.rd, mem.amo(i.op, addr, regs.get(i.rs2)));
    recordAccess(addr, 4, res);
}

template <class Mem>
inline void
Fence(const Instruction &, Addr, RegFile &, Mem &, Cycle, StepResult &)
{
}

template <class Mem>
inline void
Jal(const Instruction &i, Addr pc, RegFile &regs, Mem &, Cycle,
    StepResult &res)
{
    regs.set(i.rd, pc + 4);
    res.branchTaken = true;
    res.nextPc = branchTarget(pc, i.imm);
}

template <class Mem>
inline void
Jalr(const Instruction &i, Addr pc, RegFile &regs, Mem &, Cycle,
     StepResult &res)
{
    // Target from rs1 *before* the link write (rd may alias rs1).
    res.nextPc = regs.get(i.rs1) + static_cast<u32>(i.imm);
    res.branchTaken = true;
    regs.set(i.rd, pc + 4);
}

template <class Mem>
inline void
Xloop(const Instruction &i, Addr pc, RegFile &regs, Mem &, Cycle,
      StepResult &res)
{
    // Traditional execution: rIdx += 1; branch back while idx < bound.
    // The bound is read *after* the index write (rs1 may alias rd).
    const u32 idx = regs.get(i.rd) + 1;
    regs.set(i.rd, idx);
    branchIf(static_cast<i32>(idx) < static_cast<i32>(regs.get(i.rs1)), pc,
             i.imm, res);
}

template <class Mem>
inline void
XloopDe(const Instruction &i, Addr pc, RegFile &regs, Mem &, Cycle,
        StepResult &res)
{
    // Data-dependent exit (extension): rIdx += 1; branch back while the
    // exit-flag register still reads zero.
    regs.set(i.rd, regs.get(i.rd) + 1);
    branchIf(regs.get(i.rs1) == 0, pc, i.imm, res);
}

template <class Mem>
inline void
AddiuXi(const Instruction &i, Addr, RegFile &regs, Mem &, Cycle,
        StepResult &)
{
    // Traditional execution: a plain immediate add to the MIV.
    regs.set(i.rd, regs.get(i.rd) + static_cast<u32>(i.imm));
}

template <class Mem>
inline void
AdduXi(const Instruction &i, Addr, RegFile &regs, Mem &, Cycle,
       StepResult &)
{
    regs.set(i.rd, regs.get(i.rd) + regs.get(i.rs2));
}

template <class Mem>
inline void
Nop(const Instruction &, Addr, RegFile &, Mem &, Cycle, StepResult &)
{
}

template <class Mem>
inline void
Halt(const Instruction &, Addr pc, RegFile &, Mem &, Cycle,
     StepResult &res)
{
    res.halted = true;
    res.nextPc = pc;
}

template <class Mem>
inline void
Csrr(const Instruction &i, Addr, RegFile &regs, Mem &, Cycle cycle,
     StepResult &)
{
    // csr 0: cycle counter.
    regs.set(i.rd, static_cast<u32>(cycle));
}

} // namespace sem

/** Stateless ISA semantics. */
class ExecCore
{
  public:
    /**
     * Execute @p inst at @p pc: read/write @p regs, access @p mem.
     *
     * @param cycle current cycle for csrr (cycle counter reads)
     */
    static StepResult step(const Instruction &inst, Addr pc, RegFile &regs,
                           MemIface &mem, Cycle cycle = 0);

    /**
     * step() on a concrete memory type, so its loads and stores bind
     * statically; the LPSU lanes call it on their own `final` memory
     * and the GPP commit loop (XloopsSystem::run) on its `final`
     * MainMemory. step() is this template on MemIface and stays the
     * entry point for everyone else: FunctionalExecutor is the
     * switch-dispatch baseline bench/micro_dispatch measures the
     * threaded executor against, so it must keep its virtual
     * MainMemory accesses.
     */
    template <class Mem>
    static StepResult stepOn(const Instruction &inst, Addr pc,
                             RegFile &regs, Mem &mem, Cycle cycle);
};

template <class Mem>
StepResult
ExecCore::stepOn(const Instruction &inst, Addr pc, RegFile &regs, Mem &mem,
                 Cycle cycle)
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

#endif // XLOOPS_CPU_EXEC_CORE_H
