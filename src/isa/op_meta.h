/**
 * @file
 * The semantics of the xrisc ISA and the per-opcode execution metadata
 * derived from it.
 *
 * XLOOPS_HANDLER_LIST defines what every OpHandler computes, once.
 * Both functional paths expand it: ExecCore::step (the GPP models, the
 * LPSU lanes and the lockstep shadow) and the computed-goto threaded
 * interpreter (the golden model). The opcode→handler map is the last
 * column of the opcodes.h X-macro; the rest of OpMeta (operand fields,
 * memory side effects, superblock termination) is derived from the
 * format and functional-class columns at compile time and
 * cross-checked by static_assert, so the metadata can never drift from
 * the ISA definition without failing the build.
 */

#ifndef XLOOPS_ISA_OP_META_H
#define XLOOPS_ISA_OP_META_H

#include <array>

#include "isa/opcodes.h"

namespace xloops {

/**
 * X-macro: the semantics of each OpHandler, in OpHandler order.
 *
 *  - VALUE(name, expr): rd <- expr.
 *  - BRANCH(name, expr): branch to pc + 4 * imm when expr holds.
 *  - OTHER(name): an inline function sem::name in cpu/exec_core.h
 *    (memory, jumps, xloops, xi adds, halt, csrr).
 *
 * An expression reads u32 a = rs1 and b = rs2, i32 imm, their signed
 * views sa and sb, ui = u32(imm), and the float views fa and fb
 * (cpu/exec_core.h expands each entry into a function over them). FP
 * results go through fp::canon and fp::toWord (cpu/fp.h) so NaN
 * payloads and float→int edges are bit-identical on every host.
 *
 * Opcodes whose semantics differ only by a metadata parameter share a
 * handler: the five loads share Load (size/sign from OpMeta), the three
 * stores share Store, the seven AMOs share Amo (the combine function is
 * selected by the opcode inside MemIface::amo), the ten xloop.*[.db]
 * opcodes share Xloop (traditional increment-compare-branch), and the
 * two xloop.*.de extensions share XloopDe.
 */
#define XLOOPS_HANDLER_LIST(VALUE, BRANCH, OTHER)                        \
    VALUE(Add, a + b)                                                    \
    VALUE(Sub, a - b)                                                    \
    VALUE(Mul, a * b)                                                    \
    VALUE(Mulh, static_cast<u32>((i64{sa} * sb) >> 32))                  \
    /* x / 0 = -1 and x % 0 = x; INT_MIN / -1 = INT_MIN, rem 0 */        \
    VALUE(Div, b == 0 ? ~0u : b == ~0u ? 0u - a                          \
                                       : static_cast<u32>(sa / sb))      \
    VALUE(Rem, b == 0 ? a : b == ~0u ? 0u : static_cast<u32>(sa % sb))   \
    VALUE(And, a & b)                                                    \
    VALUE(Or, a | b)                                                     \
    VALUE(Xor, a ^ b)                                                    \
    VALUE(Nor, ~(a | b))                                                 \
    VALUE(Sll, a << (b & 31))                                            \
    VALUE(Srl, a >> (b & 31))                                            \
    VALUE(Sra, static_cast<u32>(sa >> (b & 31)))                         \
    VALUE(Slt, sa < sb)                                                  \
    VALUE(Sltu, a < b)                                                   \
    VALUE(Addi, a + ui)                                                  \
    VALUE(Andi, a & ui)                                                  \
    VALUE(Ori, a | ui)                                                   \
    VALUE(Xori, a ^ ui)                                                  \
    VALUE(Slli, a << (imm & 31))                                         \
    VALUE(Srli, a >> (imm & 31))                                         \
    VALUE(Srai, static_cast<u32>(sa >> (imm & 31)))                      \
    VALUE(Slti, sa < imm)                                                \
    VALUE(Sltiu, a < ui)                                                 \
    VALUE(Lui, ui << 13)                                                 \
    VALUE(Fadd, fp::canon(fa + fb))                                      \
    VALUE(Fsub, fp::canon(fa - fb))                                      \
    VALUE(Fmul, fp::canon(fa * fb))                                      \
    VALUE(Fdiv, fp::canon(fa / fb))                                      \
    VALUE(Fmin, fp::canon(std::fmin(fa, fb)))                            \
    VALUE(Fmax, fp::canon(std::fmax(fa, fb)))                            \
    VALUE(Flt, fa < fb)                                                  \
    VALUE(Fle, fa <= fb)                                                 \
    VALUE(Feq, fa == fb)                                                 \
    VALUE(Fcvtsw, fp::canon(static_cast<float>(sa)))                     \
    VALUE(Fcvtws, fp::toWord(fa))                                        \
    OTHER(Load)                                                          \
    OTHER(Store)                                                         \
    OTHER(Amo)                                                           \
    OTHER(Fence)                                                         \
    BRANCH(Beq, a == b)                                                  \
    BRANCH(Bne, a != b)                                                  \
    BRANCH(Blt, sa < sb)                                                 \
    BRANCH(Bge, sa >= sb)                                                \
    BRANCH(Bltu, a < b)                                                  \
    BRANCH(Bgeu, a >= b)                                                 \
    OTHER(Jal)                                                           \
    OTHER(Jalr)                                                          \
    OTHER(Xloop)                                                         \
    OTHER(XloopDe)                                                       \
    OTHER(AddiuXi)                                                       \
    OTHER(AdduXi)                                                        \
    OTHER(Nop)                                                           \
    OTHER(Halt)                                                          \
    OTHER(Csrr)

/** Semantic handler implementing an opcode (see XLOOPS_HANDLER_LIST). */
enum class OpHandler : u8
{
#define XLOOPS_HANDLER_ENUM(name, ...) name,
    XLOOPS_HANDLER_LIST(XLOOPS_HANDLER_ENUM, XLOOPS_HANDLER_ENUM,
                        XLOOPS_HANDLER_ENUM)
#undef XLOOPS_HANDLER_ENUM
    NumHandlers
};

constexpr unsigned numOpHandlers =
    static_cast<unsigned>(OpHandler::NumHandlers);

/** Static execution metadata of one opcode. */
struct OpMeta
{
    OpHandler handler = OpHandler::Nop;
    bool readsRs1 = false;   ///< consumes the rs1 field as a register
    bool readsRs2 = false;   ///< consumes the rs2 field as a register
    bool readsRd = false;    ///< rd is also a source (xloop index, xi)
    bool writesRd = false;   ///< architectural write to rd (r0 discarded)
    bool memRead = false;    ///< reads data memory (loads, AMOs)
    bool memWrite = false;   ///< writes data memory (stores, AMOs)
    bool isAmo = false;      ///< read-modify-write atomic
    bool endsBlock = false;  ///< control flow or halt: terminates a
                             ///< superblock (everything after it in the
                             ///< static text may never execute)
    bool usesCycle = false;  ///< observes the cycle counter (csrr)
    u8 memSize = 0;          ///< access bytes (1, 2, 4; 0 = no access)
    bool memSigned = false;  ///< loads: sign-extend sub-word values
};

namespace op_meta_detail {

/** Memory access width of @p op (0 for non-memory opcodes). */
constexpr u8
memSizeOf(Op op)
{
    switch (op) {
      case Op::LW: case Op::SW: return 4;
      case Op::LH: case Op::LHU: case Op::SH: return 2;
      case Op::LB: case Op::LBU: case Op::SB: return 1;
      case Op::AMOADD: case Op::AMOAND: case Op::AMOOR: case Op::AMOXOR:
      case Op::AMOSWAP: case Op::AMOMIN: case Op::AMOMAX:
        return 4;
      default: return 0;
    }
}

constexpr OpMeta
metaOf(Op op, OpHandler handler)
{
    const Format fmt = opTraitsTable[static_cast<unsigned>(op)].format;
    const FuClass fu = opTraitsTable[static_cast<unsigned>(op)].fuClass;
    OpMeta m;
    m.handler = handler;
    // Operand classes follow the encoding format.
    m.readsRs1 = fmt == Format::R || fmt == Format::A || fmt == Format::I ||
                 fmt == Format::S || fmt == Format::B || fmt == Format::X;
    m.readsRs2 = fmt == Format::R || fmt == Format::A || fmt == Format::S ||
                 fmt == Format::B || op == Op::ADDU_XI;
    m.readsRd = fmt == Format::X || fmt == Format::XI;
    m.writesRd = fmt == Format::R || fmt == Format::A || fmt == Format::I ||
                 fmt == Format::U || fmt == Format::C || fmt == Format::J ||
                 fmt == Format::X || fmt == Format::XI;
    m.memRead = fu == FuClass::Load || fu == FuClass::Amo;
    m.memWrite = fu == FuClass::Store || fu == FuClass::Amo;
    m.isAmo = fu == FuClass::Amo;
    m.endsBlock = fu == FuClass::Branch || fu == FuClass::Jump ||
                  fu == FuClass::Xloop || op == Op::HALT;
    m.usesCycle = op == Op::CSRR;
    m.memSize = memSizeOf(op);
    m.memSigned = op == Op::LH || op == Op::LB;
    return m;
}

} // namespace op_meta_detail

/** The compile-time metadata table, indexed by opcode value. */
constexpr std::array<OpMeta, numOpcodes> opMetaTable = {{
#define XLOOPS_OP_META(name, mnem, fmt, fu, lat, handler)                \
    op_meta_detail::metaOf(Op::name, OpHandler::handler),
    XLOOPS_OPCODE_LIST(XLOOPS_OP_META)
#undef XLOOPS_OP_META
}};

/** Metadata of opcode @p op. */
constexpr const OpMeta &
opMeta(Op op)
{
    return opMetaTable[static_cast<unsigned>(op)];
}

namespace op_meta_detail {

// The handler column cannot drift from the functional classes: the
// shared memory and xloop handlers serve exactly their classes, no
// opcode reads more than the two sources Instruction::srcRegs reports,
// and the load metadata is present exactly for loads.
constexpr bool
tableConsistent()
{
    for (unsigned i = 0; i < numOpcodes; i++) {
        const Op op = static_cast<Op>(i);
        const OpMeta &m = opMetaTable[i];
        const FuClass fu = opTraitsTable[i].fuClass;
        if ((m.handler == OpHandler::Load) != (fu == FuClass::Load) ||
            (m.handler == OpHandler::Store) != (fu == FuClass::Store) ||
            (m.handler == OpHandler::Amo) != (fu == FuClass::Amo))
            return false;
        if ((m.handler == OpHandler::Xloop ||
             m.handler == OpHandler::XloopDe) != (fu == FuClass::Xloop))
            return false;
        if ((m.handler == OpHandler::XloopDe) !=
            (op == Op::XLOOP_OM_DE || op == Op::XLOOP_ORM_DE))
            return false;
        if ((m.handler == OpHandler::AddiuXi ||
             m.handler == OpHandler::AdduXi) != (fu == FuClass::Xi))
            return false;
        if (m.readsRd + m.readsRs1 + m.readsRs2 > 2)
            return false;
        if ((m.memSize != 0) != (m.memRead || m.memWrite))
            return false;
        if (m.memSigned && !(fu == FuClass::Load && m.memSize < 4))
            return false;
    }
    return true;
}

static_assert(tableConsistent(),
              "op_meta.h metadata disagrees with the opcodes.h X-macro");
static_assert(opMeta(Op::LW).memSize == 4 && opMeta(Op::LB).memSigned &&
                  !opMeta(Op::LBU).memSigned,
              "load width/sign metadata wrong");
static_assert(opMeta(Op::HALT).endsBlock && !opMeta(Op::CSRR).endsBlock,
              "superblock termination flags wrong");

} // namespace op_meta_detail

} // namespace xloops

#endif // XLOOPS_ISA_OP_META_H
