/**
 * @file
 * Threaded-dispatch functional executor — the golden model, and the
 * fast path twin of FunctionalExecutor.
 *
 * Instead of re-deciding the opcode with a switch on every dynamic
 * instruction, the program text is carved into *superblocks*: decoded
 * straight-line runs keyed by entry pc, each ending at the first
 * control-flow or halt instruction (opMeta().endsBlock). Blocks are
 * built lazily on first entry, cached in a dense per-word table, and
 * executed with a computed-goto dispatch loop over constexpr handler
 * ids (isa/op_meta.h). Each handler is an expansion of the one
 * XLOOPS_HANDLER_LIST that ExecCore::step also expands, so the two
 * executors share every opcode's semantics and differ only in the
 * dispatch glue.
 *
 * Equivalence contract: run() produces bit-identical architectural
 * state (register file, memory image, dynamic instruction counts,
 * stat counters) and identical FatalError text on trap paths to
 * FunctionalExecutor::run on every program. tests/test_threaded_exec.cc
 * checks this per opcode; tests/test_kernels.cc checks it per kernel.
 *
 * The block cache is bound to one predecoded image, by its serial
 * number (DecodedProgram::serial); executing a different or reloaded
 * program re-binds and drops every cached block. Checkpoint restore
 * must call invalidate() explicitly — the restored memory image may
 * disagree with a self-modifying program's text without changing the
 * Program object (see system/sampling.cc and the regression tests in
 * tests/test_predecode.cc).
 */

#ifndef XLOOPS_CPU_THREADED_H
#define XLOOPS_CPU_THREADED_H

#include <memory>
#include <vector>

#include "asm/program.h"
#include "common/stats.h"
#include "cpu/exec_core.h"
#include "cpu/functional.h"
#include "isa/op_meta.h"
#include "mem/memory.h"

namespace xloops {

/** Superblock-caching threaded interpreter. */
class ThreadedExecutor
{
  public:
    /**
     * Resumable execution position. dynInsts doubles as the cycle
     * value csrr observes, exactly like FunctionalExecutor's running
     * count; it accumulates across execute() calls so a sampled
     * simulation sees a monotone instruction clock.
     */
    struct Cursor
    {
        Addr pc = 0;
        bool halted = false;
        u64 dynInsts = 0;
    };

    explicit ThreadedExecutor(MainMemory &memory) : mem(memory) {}

    /**
     * Run @p prog from its entry until halt — drop-in replacement for
     * FunctionalExecutor::run, including the safety-valve semantics
     * (throws the identical FatalError when @p maxInsts is exceeded)
     * and the xloop_insts / xi_insts / dyn_insts stat contract.
     */
    FuncResult run(const Program &prog, u64 maxInsts = 500'000'000);

    /**
     * Execute up to @p budget instructions of @p prog from @p cur,
     * advancing the cursor in place. Returns the number actually
     * executed (short only on halt). This is the sampled simulator's
     * fast-forward primitive: call it in chunks and interleave
     * cycle-accurate windows between chunks.
     */
    u64 execute(const Program &prog, Cursor &cur, u64 budget);

    /** Drop every cached superblock and unbind the program identity.
     *  Mandatory after checkpoint restore or any external mutation of
     *  the text image. */
    void invalidate();

    RegFile &regFile() { return regs; }
    StatGroup &stats() { return statGroup; }

    /** Bumps every time the cache is invalidated or rebound. */
    u64 cacheGeneration() const { return generation; }

    /** Number of superblocks currently materialized. */
    size_t cachedBlocks() const;

    /** Cache slots (== text words of the bound program; 0 unbound). */
    size_t cacheCapacity() const { return blocks.size(); }

  private:
    /** One predecoded op: instruction plus its dispatch label. */
    struct SbOp
    {
        Instruction inst;
        OpHandler h = OpHandler::Nop;
    };

    /** A decoded straight-line run; ends at the first endsBlock op
     *  (inclusive), at an undecodable word (exclusive — the fault
     *  stays lazy), or at the end of text. Never empty. */
    struct Superblock
    {
        Addr entry = 0;
        std::vector<SbOp> ops;
    };

    void bind(const Program &prog);
    const Superblock &blockAt(const DecodedProgram &dec, Addr pc);
    std::unique_ptr<Superblock> buildBlock(const DecodedProgram &dec,
                                           Addr pc);
    u64 interp(const DecodedProgram &dec, Addr &pc, bool &halted, u64 budget,
               u64 cycle0, u64 &xloopCnt, u64 &xiCnt);

    MainMemory &mem;
    RegFile regs;
    StatGroup statGroup;

    std::vector<std::unique_ptr<Superblock>> blocks;
    u64 boundSerial = 0;  ///< DecodedProgram::serial(); 0 = unbound
    u64 generation = 0;
};

} // namespace xloops

#endif // XLOOPS_CPU_THREADED_H
