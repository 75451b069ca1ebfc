// Exhaustive per-opcode differential tests: the threaded-dispatch
// executor (cpu/threaded.h) must be observationally identical to the
// legacy switch executor (cpu/functional.h) — same register file, same
// memory digest, same dynamic instruction counts and stat counters,
// same FatalError text on every trap path (bad fetch, undecodable
// word, instruction-limit valve). Every opcode in opcodes.h gets
// randomized operand/state cases drawn from a named RNG stream; a
// mismatch re-runs the case in lockstep and reports the first
// divergent instruction disassembled.

#include <gtest/gtest.h>

#include <array>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "asm/assembler.h"
#include "asm/program.h"
#include "common/log.h"
#include "common/rng.h"
#include "cpu/functional.h"
#include "cpu/threaded.h"
#include "isa/disasm.h"
#include "isa/op_meta.h"
#include "kernels/kernel.h"

namespace xloops {
namespace {

// The candidate instruction sits at this word of a HALT-filled text
// segment, so negative branch/xloop offsets stay in text while large
// random offsets still exercise the out-of-text trap paths.
constexpr size_t candidateWord = 32;
constexpr size_t textWords = 64;
constexpr Addr arenaBase = 0x200000;
constexpr unsigned arenaWords = 1024;
constexpr u64 caseValve = 256;  // shared maxInsts valve per case

/** One randomized differential case: program, registers, data. */
struct CaseSetup
{
    Program prog;
    std::array<u32, numArchRegs> regs{};
    std::vector<u32> arena;  // words at arenaBase
};

/** Everything observable about one executor's run of a case. */
struct Outcome
{
    bool threw = false;
    std::string error;
    u64 dynInsts = 0;
    bool halted = false;
    std::array<u32, numArchRegs> regs{};
    u64 memDigest = 0;
    std::string stats;

    bool
    operator==(const Outcome &o) const = default;
};

std::string
describe(const Outcome &o)
{
    std::ostringstream ss;
    ss << (o.threw ? "threw \"" + o.error + "\""
                   : strf("clean dynInsts=", o.dynInsts,
                          " halted=", o.halted));
    ss << " memDigest=0x" << std::hex << o.memDigest << std::dec;
    for (unsigned r = 0; r < numArchRegs; r++)
        if (o.regs[r])
            ss << " r" << r << "=0x" << std::hex << o.regs[r] << std::dec;
    if (!o.stats.empty())
        ss << " stats{" << o.stats << "}";
    return ss.str();
}

void
initMemory(MainMemory &mem, const CaseSetup &s)
{
    s.prog.loadInto(mem);
    for (unsigned i = 0; i < s.arena.size(); i++)
        mem.writeWord(arenaBase + 4 * i, s.arena[i]);
}

Outcome
runLegacy(const CaseSetup &s)
{
    MainMemory mem;
    initMemory(mem, s);
    FunctionalExecutor exec(mem);
    exec.regFile().regs = s.regs;
    Outcome o;
    try {
        const FuncResult r = exec.run(s.prog, caseValve);
        o.dynInsts = r.dynInsts;
        o.halted = r.halted;
    } catch (const FatalError &err) {
        o.threw = true;
        o.error = err.what();
    }
    o.regs = exec.regFile().regs;
    o.memDigest = mem.digest();
    o.stats = exec.stats().dump();
    return o;
}

Outcome
runThreaded(const CaseSetup &s)
{
    MainMemory mem;
    initMemory(mem, s);
    ThreadedExecutor exec(mem);
    exec.regFile().regs = s.regs;
    Outcome o;
    try {
        const FuncResult r = exec.run(s.prog, caseValve);
        o.dynInsts = r.dynInsts;
        o.halted = r.halted;
    } catch (const FatalError &err) {
        o.threw = true;
        o.error = err.what();
    }
    o.regs = exec.regFile().regs;
    o.memDigest = mem.digest();
    o.stats = exec.stats().dump();
    return o;
}

/**
 * Lockstep diagnosis of a failed case: single-step the legacy
 * semantics and the threaded executor side by side and name the first
 * instruction after which their architectural state differs,
 * disassembled.
 */
std::string
diagnose(const CaseSetup &s)
{
    MainMemory legacyMem, threadedMem;
    initMemory(legacyMem, s);
    initMemory(threadedMem, s);
    RegFile legacyRegs;
    legacyRegs.regs = s.regs;
    ThreadedExecutor exec(threadedMem);
    exec.regFile().regs = s.regs;
    ThreadedExecutor::Cursor cur;
    cur.pc = s.prog.entry;

    const DecodedProgram &dec = s.prog.decoded();
    Addr legacyPc = s.prog.entry;
    for (u64 n = 0; n < caseValve; n++) {
        std::string legacyTrap, threadedTrap;
        Instruction inst;
        bool legacyHalted = false;
        try {
            inst = dec.fetch(legacyPc);
            const StepResult st =
                ExecCore::step(inst, legacyPc, legacyRegs, legacyMem, n);
            legacyHalted = st.halted;
            if (!st.halted)
                legacyPc = st.nextPc;
        } catch (const FatalError &err) {
            legacyTrap = err.what();
        }
        try {
            exec.execute(s.prog, cur, 1);
        } catch (const FatalError &err) {
            threadedTrap = err.what();
        }
        const std::string at =
            strf("inst #", n, " @pc=0x", std::hex, legacyPc, std::dec,
                 ": ", disassemble(inst, legacyPc));
        if (legacyTrap != threadedTrap)
            return strf("first divergence at ", at, " — legacy trap \"",
                        legacyTrap, "\" vs threaded trap \"", threadedTrap,
                        "\"");
        if (!legacyTrap.empty())
            return "both trapped identically; divergence is in "
                   "post-trap state";
        if (legacyRegs.regs != exec.regFile().regs)
            return strf("first divergence at ", at, " — register file");
        if (legacyMem.digest() != threadedMem.digest())
            return strf("first divergence at ", at, " — memory digest");
        if (!cur.halted && legacyPc != cur.pc)
            return strf("first divergence at ", at, " — next pc legacy=0x",
                        std::hex, legacyPc, " threaded=0x", cur.pc);
        if (legacyHalted != cur.halted)
            return strf("first divergence at ", at, " — halt state");
        if (legacyHalted)
            break;
    }
    return "no per-instruction divergence found (stat or valve "
           "bookkeeping differs)";
}

Instruction
haltInst()
{
    Instruction h;
    h.op = Op::HALT;
    return h;
}

/** A valid random instance of @p op (field ranges per Format). */
Instruction
randomInst(Op op, Rng &rng)
{
    Instruction inst;
    inst.op = op;
    auto reg = [&] { return static_cast<RegId>(rng.nextBelow(32)); };
    // Half the control transfers stay inside the HALT-filled text,
    // half roam the whole immediate range to exercise fetch faults.
    auto wordOffset = [&](i32 lo, i32 hi, i32 wildLo, i32 wildHi) {
        return rng.nextBelow(2) ? rng.nextRange(lo, hi)
                                : rng.nextRange(wildLo, wildHi);
    };
    switch (opTraits(op).format) {
      case Format::R:
      case Format::A:
        inst.rd = reg();
        inst.rs1 = reg();
        inst.rs2 = reg();
        break;
      case Format::I:
        inst.rd = reg();
        inst.rs1 = reg();
        inst.imm = rng.nextRange(-8192, 8191);
        break;
      case Format::S:
        inst.rs2 = reg();
        inst.rs1 = reg();
        inst.imm = rng.nextRange(-8192, 8191);
        break;
      case Format::U:
      case Format::C:
        inst.rd = reg();
        inst.imm = static_cast<i32>(rng.nextBelow(1 << 19));
        break;
      case Format::B:
        inst.rs1 = reg();
        inst.rs2 = reg();
        inst.imm = wordOffset(-static_cast<i32>(candidateWord),
                              static_cast<i32>(textWords - candidateWord) -
                                  1,
                              -8192, 8191);
        break;
      case Format::J:
        inst.rd = reg();
        inst.imm = wordOffset(-static_cast<i32>(candidateWord),
                              static_cast<i32>(textWords - candidateWord) -
                                  1,
                              -262144, 262143);
        break;
      case Format::X:
        inst.rd = reg();
        inst.rs1 = reg();
        inst.hint = rng.nextBelow(2) != 0;
        inst.imm =
            wordOffset(-static_cast<i32>(candidateWord), -1, -4096, -1);
        break;
      case Format::XI:
        inst.rd = reg();
        if (op == Op::ADDIU_XI)
            inst.imm = rng.nextRange(-8192, 8191);
        else
            inst.rs2 = reg();
        break;
      case Format::N:
        break;
    }
    return inst;
}

/** Register values biased toward the interesting regions: small
 *  indices, arena pointers, sign boundaries, full-range garbage. */
u32
randomRegValue(Rng &rng)
{
    switch (rng.nextBelow(4)) {
      case 0: return rng.nextBelow(64);
      case 1: return arenaBase + 4 * rng.nextBelow(arenaWords);
      case 2: return static_cast<u32>(-rng.nextRange(0, 64));
      default: return static_cast<u32>(rng.next());
    }
}

CaseSetup
randomCase(Op op, Rng &rng)
{
    CaseSetup s;
    s.prog.text.assign(textWords, haltInst().encode());
    s.prog.text[candidateWord] = randomInst(op, rng).encode();
    s.prog.entry = s.prog.textBase + 4 * candidateWord;
    for (unsigned r = 1; r < numArchRegs; r++)
        s.regs[r] = randomRegValue(rng);
    s.arena.resize(arenaWords);
    for (u32 &w : s.arena)
        w = static_cast<u32>(rng.next());
    return s;
}

TEST(ThreadedExec, EveryOpcodeDifferential)
{
    constexpr unsigned casesPerOpcode = 200;
    RngPool pool(0xd1ff0001);
    for (unsigned i = 0; i < numOpcodes; i++) {
        const Op op = static_cast<Op>(i);
        const char *mnem = opTraits(op).mnemonic;
        SCOPED_TRACE(mnem);
        Rng &rng = pool.stream(std::string("diff.") + mnem);
        for (unsigned c = 0; c < casesPerOpcode; c++) {
            const CaseSetup s = randomCase(op, rng);
            const Outcome legacy = runLegacy(s);
            const Outcome threaded = runThreaded(s);
            if (legacy == threaded)
                continue;
            FAIL() << mnem << " case " << c << ":\n  legacy:   "
                   << describe(legacy) << "\n  threaded: "
                   << describe(threaded) << "\n  " << diagnose(s);
        }
    }
}

// An undecodable word must fault identically whether it is the entry
// instruction, reached by falling through a straight-line block, or
// reached by a taken branch — and the superblock builder must keep
// the fault lazy (the block before it executes fine).
TEST(ThreadedExec, UndecodableWordTrapParity)
{
    const u32 badWord = 0xff000000u;  // opcode 255: illegal

    struct Variant
    {
        const char *label;
        size_t badAt;      // word index of the illegal word
        size_t entryAt;    // word index execution starts from
    };
    const Variant variants[] = {
        {"entry is illegal", 4, 4},
        {"fall-through into illegal", 4, 2},
        {"branch into illegal", 10, 0},
    };
    for (const Variant &v : variants) {
        SCOPED_TRACE(v.label);
        CaseSetup s;
        s.prog.text.assign(textWords, haltInst().encode());
        // Words before the bad one are NOPs so execution flows on.
        Instruction nop;
        nop.op = Op::NOP;
        for (size_t w = 0; w < v.badAt; w++)
            s.prog.text[w] = nop.encode();
        if (v.label == std::string("branch into illegal")) {
            Instruction b;  // beq r0, r0, +10: always taken
            b.op = Op::BEQ;
            b.imm = static_cast<i32>(v.badAt);
            s.prog.text[0] = b.encode();
        }
        s.prog.text[v.badAt] = badWord;
        s.prog.entry = s.prog.textBase + 4 * v.entryAt;
        const Outcome legacy = runLegacy(s);
        const Outcome threaded = runThreaded(s);
        EXPECT_TRUE(legacy.threw);
        EXPECT_EQ(legacy, threaded)
            << "legacy:   " << describe(legacy)
            << "\nthreaded: " << describe(threaded);
    }
}

// The instruction-limit valve must trip after the same count with the
// same FatalError text — including the legacy quirk that maxInsts == 0
// still executes one instruction before tripping.
TEST(ThreadedExec, InstLimitValveMatches)
{
    // beq r0, r0, 0 → unconditional self-loop.
    Instruction self;
    self.op = Op::BEQ;
    self.imm = 0;
    Program prog;
    prog.text = {self.encode()};

    for (const u64 maxInsts : {u64{0}, u64{1}, u64{2}, u64{100}}) {
        SCOPED_TRACE(maxInsts);
        MainMemory lm, tm;
        prog.loadInto(lm);
        prog.loadInto(tm);
        FunctionalExecutor legacy(lm);
        ThreadedExecutor threaded(tm);
        std::string legacyErr, threadedErr;
        try {
            legacy.run(prog, maxInsts);
        } catch (const FatalError &err) {
            legacyErr = err.what();
        }
        try {
            threaded.run(prog, maxInsts);
        } catch (const FatalError &err) {
            threadedErr = err.what();
        }
        EXPECT_FALSE(legacyErr.empty());
        EXPECT_EQ(legacyErr, threadedErr);
        EXPECT_EQ(legacy.stats().dump(), threaded.stats().dump());
    }
}

// The constexpr metadata table must agree with the runtime operand
// queries (srcRegs/destReg) and classification helpers on every
// opcode: the threaded executor trusts the table, the rest of the
// system trusts the queries, and they must never drift.
TEST(ThreadedExec, OpMetaMatchesInstructionQueries)
{
    Rng rng(0x0f0e0d0c);
    for (unsigned i = 0; i < numOpcodes; i++) {
        const Op op = static_cast<Op>(i);
        SCOPED_TRACE(opTraits(op).mnemonic);
        const OpMeta &m = opMeta(op);

        // Nonzero register fields so destReg()'s r0 special case
        // cannot mask a classification difference.
        Instruction inst = randomInst(op, rng);
        inst.rd = inst.rd ? inst.rd : 1;
        inst.rs1 = inst.rs1 ? inst.rs1 : 2;
        inst.rs2 = inst.rs2 ? inst.rs2 : 3;

        EXPECT_EQ(m.writesRd, inst.destReg() != numArchRegs);

        RegId src[2] = {0, 0};
        const unsigned n = inst.srcRegs(src);
        bool readsRs1 = false, readsRs2 = false, readsRd = false;
        for (unsigned k = 0; k < n; k++) {
            readsRs1 |= src[k] == inst.rs1 && m.readsRs1;
            readsRs2 |= src[k] == inst.rs2 && m.readsRs2;
            readsRd |= src[k] == inst.rd && m.readsRd;
        }
        // Every flagged operand class must appear in srcRegs and
        // vice versa (operand identity, not just count).
        EXPECT_EQ(m.readsRs1, readsRs1);
        EXPECT_EQ(m.readsRs2, readsRs2);
        EXPECT_EQ(m.readsRd, readsRd);
        EXPECT_EQ(static_cast<unsigned>(m.readsRs1) + m.readsRs2 +
                      m.readsRd,
                  n);

        EXPECT_EQ(m.memRead, inst.isLoad() || inst.isAmo());
        EXPECT_EQ(m.memWrite, inst.isStore() || inst.isAmo());
        EXPECT_EQ(m.isAmo, inst.isAmo());
        EXPECT_EQ(m.endsBlock, inst.isControl() || op == Op::HALT);
        EXPECT_EQ(m.handler == OpHandler::Xloop ||
                      m.handler == OpHandler::XloopDe,
                  inst.isXloop());
        EXPECT_EQ(m.handler == OpHandler::AddiuXi ||
                      m.handler == OpHandler::AdduXi,
                  inst.isXi());
    }
}

// Chunked execute() with arbitrary budget boundaries must land on the
// same final state as one uninterrupted run — the property sampled
// simulation's fast-forward depends on.
TEST(ThreadedExec, CursorResumeMatchesSingleRun)
{
    const Kernel &k = kernelByName("rgb2cmyk-uc");
    const Program prog = assemble(k.source);

    MainMemory wholeMem;
    prog.loadInto(wholeMem);
    k.setup(wholeMem, prog);
    ThreadedExecutor whole(wholeMem);
    const FuncResult ref = whole.run(prog);

    MainMemory chunkMem;
    prog.loadInto(chunkMem);
    k.setup(chunkMem, prog);
    ThreadedExecutor chunked(chunkMem);
    ThreadedExecutor::Cursor cur;
    cur.pc = prog.entry;
    Rng rng(0xc0ffee);
    while (!cur.halted)
        chunked.execute(prog, cur, 1 + rng.nextBelow(997));
    chunked.stats().set(Stat::DynInsts, cur.dynInsts);

    EXPECT_EQ(cur.dynInsts, ref.dynInsts);
    EXPECT_EQ(whole.regFile().regs, chunked.regFile().regs);
    EXPECT_EQ(wholeMem.digest(), chunkMem.digest());
    EXPECT_EQ(whole.stats().dump(), chunked.stats().dump());
}

// Superblock cache lifecycle: populated lazily, keyed to the program
// identity (a different program rebinds and drops every block), and
// emptied by invalidate().
TEST(ThreadedExec, SuperblockCacheBindsAndInvalidates)
{
    const Program progA = assemble(kernelByName("rgb2cmyk-uc").source);
    const Program progB = assemble(kernelByName("kmeans-or").source);

    MainMemory mem;
    ThreadedExecutor exec(mem);

    progA.loadInto(mem);
    kernelByName("rgb2cmyk-uc").setup(mem, progA);
    exec.run(progA);
    const u64 genA = exec.cacheGeneration();
    EXPECT_GT(exec.cachedBlocks(), 0u);
    EXPECT_EQ(exec.cacheCapacity(), progA.numInsts());

    // Same program again: no rebind, cache kept.
    ThreadedExecutor::Cursor cur;
    cur.pc = progA.entry;
    exec.execute(progA, cur, 10);
    EXPECT_EQ(exec.cacheGeneration(), genA);

    // Different program: rebind drops all of A's blocks.
    progB.loadInto(mem);
    kernelByName("kmeans-or").setup(mem, progB);
    exec.run(progB);
    EXPECT_GT(exec.cacheGeneration(), genA);
    EXPECT_EQ(exec.cacheCapacity(), progB.numInsts());

    exec.invalidate();
    EXPECT_EQ(exec.cachedBlocks(), 0u);
    EXPECT_EQ(exec.cacheCapacity(), 0u);
}

// Thread-safety contract of the superblock cache: executors are
// per-thread objects, but they share one immutable DecodedProgram.
// Run the same kernel concurrently on independent executors (TSan
// covers this test in CI) and require identical results.
TEST(ThreadedExec, ConcurrentExecutorsShareDecodedProgram)
{
    const Kernel &k = kernelByName("dynprog-om");
    const Program prog = assemble(k.source);
    (void)prog.decoded();  // pre-built, shared read-only by all threads

    constexpr unsigned nThreads = 8;
    std::vector<u64> digests(nThreads);
    std::vector<u64> insts(nThreads);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < nThreads; t++) {
        threads.emplace_back([&, t] {
            MainMemory mem;
            prog.loadInto(mem);
            k.setup(mem, prog);
            ThreadedExecutor exec(mem);
            insts[t] = exec.run(prog).dynInsts;
            digests[t] = mem.digest();
        });
    }
    for (std::thread &th : threads)
        th.join();
    for (unsigned t = 1; t < nThreads; t++) {
        EXPECT_EQ(digests[t], digests[0]);
        EXPECT_EQ(insts[t], insts[0]);
    }
}

} // namespace
} // namespace xloops
