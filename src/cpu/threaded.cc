#include "cpu/threaded.h"

#include "common/log.h"

namespace xloops {

void
ThreadedExecutor::bind(const Program &prog)
{
    const DecodedProgram &dec = prog.decoded();
    if (dec.serial() == boundSerial)
        return;
    blocks.clear();
    blocks.resize(dec.numInsts());
    boundSerial = dec.serial();
    generation++;
}

void
ThreadedExecutor::invalidate()
{
    blocks.clear();
    boundSerial = 0;
    generation++;
}

size_t
ThreadedExecutor::cachedBlocks() const
{
    size_t n = 0;
    for (const auto &b : blocks)
        if (b)
            n++;
    return n;
}

std::unique_ptr<ThreadedExecutor::Superblock>
ThreadedExecutor::buildBlock(const DecodedProgram &dec, Addr pc)
{
    auto sb = std::make_unique<Superblock>();
    sb->entry = pc;
    const Addr base = dec.textBase();
    for (Addr p = pc; (p - base) / 4 < dec.numInsts(); p += 4) {
        const Instruction *inst;
        try {
            inst = &dec.fetch(p);
        } catch (const FatalError &) {
            // Undecodable word: end the block before it so the decode
            // fault stays lazy — it only fires if execution actually
            // reaches p, via the (empty-block) path below.
            break;
        }
        const OpMeta &m = opMeta(inst->op);
        sb->ops.push_back({*inst, m.handler});
        if (m.endsBlock)
            break;
    }
    if (sb->ops.empty())
        dec.fetch(pc);  // entry word undecodable: throw its exact error
    return sb;
}

const ThreadedExecutor::Superblock &
ThreadedExecutor::blockAt(const DecodedProgram &dec, Addr pc)
{
    const Addr base = dec.textBase();
    const size_t idx = static_cast<size_t>((pc - base) / 4);
    if (pc >= base && pc % 4 == 0 && idx < blocks.size()) {
        auto &slot = blocks[idx];
        if (!slot)
            slot = buildBlock(dec, pc);
        return *slot;
    }
    dec.fetch(pc);  // throws the same FatalError FunctionalExecutor does
    panic(strf("DecodedProgram::fetch returned for invalid pc 0x", std::hex,
               pc));
}

/**
 * The dispatch loop. Executes up to @p budget (> 0) instructions from
 * @p pc, updating pc/halted in place and returning the count executed.
 * Each handler label is an expansion of XLOOPS_HANDLER_LIST over the
 * same sem:: functions ExecCore::step calls; only operand fetch, pc
 * advance, block refill and the xloop/xi counts are written here.
 */
u64
ThreadedExecutor::interp(const DecodedProgram &dec, Addr &pc, bool &halted,
                         u64 budget, u64 cycle0, u64 &xloopCnt, u64 &xiCnt)
{
    u64 executed = 0;
    const Superblock *sb = &blockAt(dec, pc);
    const SbOp *op = sb->ops.data();
    const SbOp *end = op + sb->ops.size();

    static const void *const table[numOpHandlers] = {
#define XLOOPS_LABEL(name, ...) &&h_##name,
        XLOOPS_HANDLER_LIST(XLOOPS_LABEL, XLOOPS_LABEL, XLOOPS_LABEL)
#undef XLOOPS_LABEL
    };

#define DISPATCH() goto *table[static_cast<unsigned>(op->h)]

// Retire a sequential instruction: advance one word, refill the block
// pointer if this op closed the block (fall-through past a not-taken
// branch or straight off a truncated block).
#define NEXT_SEQ()                                                      \
    do {                                                                \
        pc += 4;                                                        \
        if (++executed == budget)                                       \
            goto out;                                                   \
        if (++op == end) {                                              \
            sb = &blockAt(dec, pc);                                     \
            op = sb->ops.data();                                        \
            end = op + sb->ops.size();                                  \
        }                                                               \
        DISPATCH();                                                     \
    } while (0)

// Retire a taken control transfer to @p target.
#define NEXT_JUMP(target)                                               \
    do {                                                                \
        pc = (target);                                                  \
        if (++executed == budget)                                       \
            goto out;                                                   \
        sb = &blockAt(dec, pc);                                         \
        op = sb->ops.data();                                            \
        end = op + sb->ops.size();                                      \
        DISPATCH();                                                     \
    } while (0)

#define XLOOPS_RUN_VALUE(name, ...)                                     \
    h_##name: {                                                         \
        const Instruction &i = op->inst;                                \
        regs.set(i.rd, sem::name(regs.get(i.rs1), regs.get(i.rs2),      \
                                 i.imm));                               \
        NEXT_SEQ();                                                     \
    }
#define XLOOPS_RUN_BRANCH(name, ...)                                    \
    h_##name: {                                                         \
        const Instruction &i = op->inst;                                \
        if (sem::name(regs.get(i.rs1), regs.get(i.rs2), i.imm))         \
            NEXT_JUMP(sem::branchTarget(pc, i.imm));                    \
        NEXT_SEQ();                                                     \
    }
// csrr reads the instructions retired so far as its cycle counter.
#define XLOOPS_RUN_OTHER(name)                                          \
    h_##name: {                                                         \
        StepResult r;                                                   \
        r.nextPc = pc + 4;                                              \
        sem::name(op->inst, pc, regs, mem, cycle0 + executed, r);       \
        xloopCnt += OpHandler::name == OpHandler::Xloop ||              \
                    OpHandler::name == OpHandler::XloopDe;              \
        xiCnt += OpHandler::name == OpHandler::AddiuXi ||               \
                 OpHandler::name == OpHandler::AdduXi;                  \
        if (r.halted) {                                                 \
            executed++;                                                 \
            halted = true;  /* pc stays at the halt */                  \
            goto out;                                                   \
        }                                                               \
        if (r.branchTaken)                                              \
            NEXT_JUMP(r.nextPc);                                        \
        NEXT_SEQ();                                                     \
    }

    DISPATCH();
    XLOOPS_HANDLER_LIST(XLOOPS_RUN_VALUE, XLOOPS_RUN_BRANCH, XLOOPS_RUN_OTHER)

out:
    return executed;

#undef DISPATCH
#undef NEXT_SEQ
#undef NEXT_JUMP
#undef XLOOPS_RUN_VALUE
#undef XLOOPS_RUN_BRANCH
#undef XLOOPS_RUN_OTHER
}

u64
ThreadedExecutor::execute(const Program &prog, Cursor &cur, u64 budget)
{
    if (cur.halted || budget == 0)
        return 0;
    bind(prog);
    const DecodedProgram &dec = prog.decoded();

    Addr pc = cur.pc;
    bool halted = false;
    u64 executed = 0;
    u64 xloopCnt = 0;
    u64 xiCnt = 0;

    // Stat deltas and the cursor are published on *every* exit — the
    // FunctionalExecutor counts per instruction as it goes, so a trap
    // raised at a fetch must leave behind the counts of everything
    // already executed for the stat dumps to compare equal.
    auto flush = [&] {
        if (xloopCnt)
            statGroup.add(Stat::XloopInsts, xloopCnt);
        if (xiCnt)
            statGroup.add(Stat::XiInsts, xiCnt);
        cur.pc = pc;
        cur.halted = halted;
        cur.dynInsts += executed;
    };

    try {
        executed = interp(dec, pc, halted, budget, cur.dynInsts, xloopCnt,
                          xiCnt);
    } catch (...) {
        flush();
        throw;
    }
    flush();
    return executed;
}

FuncResult
ThreadedExecutor::run(const Program &prog, u64 maxInsts)
{
    Cursor cur;
    cur.pc = prog.entry;
    // FunctionalExecutor's valve checks *after* each non-halting
    // instruction, so even maxInsts == 0 executes one instruction
    // before tripping.
    execute(prog, cur, maxInsts > 0 ? maxInsts : 1);
    if (!cur.halted)
        fatal("functional execution exceeded instruction limit");

    FuncResult result;
    result.dynInsts = cur.dynInsts;
    result.halted = true;
    statGroup.set(Stat::DynInsts, result.dynInsts);
    return result;
}

} // namespace xloops
