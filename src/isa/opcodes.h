/**
 * @file
 * The xrisc ISA opcode space, including the XLOOPS extensions
 * (xloop.{uc,or,om,orm,ua}[.db], addiu.xi, addu.xi).
 *
 * One X-macro table keeps the mnemonic, encoding format, functional
 * class, nominal execute latency, and semantic handler for every opcode
 * in one place so the assembler, decoder, disassembler, executors, and
 * timing models can never disagree.
 */

#ifndef XLOOPS_ISA_OPCODES_H
#define XLOOPS_ISA_OPCODES_H

#include <array>

#include "common/log.h"
#include "common/types.h"

namespace xloops {

/** Instruction encoding formats. */
enum class Format : u8
{
    R,      ///< opcode rd, rs1, rs2
    I,      ///< opcode rd, rs1, imm14 (loads: rd, imm(rs1))
    S,      ///< stores: opcode rs2, imm14(rs1)
    U,      ///< opcode rd, imm19 (lui)
    B,      ///< opcode rs1, rs2, label (imm14 word offset)
    J,      ///< opcode rd, label (imm19 word offset)
    X,      ///< xloop: opcode rIdx, rBound, label (imm13 back offset)
    XI,     ///< addiu.xi rd, imm14 / addu.xi rd, rs2
    N,      ///< no operands (nop, halt, fence)
    C,      ///< csrr rd, imm (read cycle counter etc.)
    A,      ///< AMO: opcode rd, rs2, (rs1)
};

/** Functional unit class used by the timing models. */
enum class FuClass : u8
{
    Alu,        ///< 1-cycle integer op
    Mul,        ///< LLFU multiplier (pipelined)
    Div,        ///< LLFU divider (unpipelined)
    Fpu,        ///< LLFU floating point (pipelined)
    Load,
    Store,
    Amo,
    Branch,
    Jump,
    Xloop,      ///< xloop instruction itself
    Xi,         ///< cross-iteration add (MIV)
    Misc,
};

// X-macro: OP(enumerator, "mnemonic", Format, FuClass, latency, handler)
// The handler column names the OpHandler (isa/op_meta.h) that carries
// the opcode's semantics.
#define XLOOPS_OPCODE_LIST(OP)                                   \
    /* integer register-register */                              \
    OP(ADD,     "add",      R, Alu, 1, Add)                      \
    OP(SUB,     "sub",      R, Alu, 1, Sub)                      \
    OP(MUL,     "mul",      R, Mul, 3, Mul)                      \
    OP(MULH,    "mulh",     R, Mul, 3, Mulh)                     \
    OP(DIV,     "div",      R, Div, 12, Div)                     \
    OP(REM,     "rem",      R, Div, 12, Rem)                     \
    OP(AND,     "and",      R, Alu, 1, And)                      \
    OP(OR,      "or",       R, Alu, 1, Or)                       \
    OP(XOR,     "xor",      R, Alu, 1, Xor)                      \
    OP(NOR,     "nor",      R, Alu, 1, Nor)                      \
    OP(SLL,     "sll",      R, Alu, 1, Sll)                      \
    OP(SRL,     "srl",      R, Alu, 1, Srl)                      \
    OP(SRA,     "sra",      R, Alu, 1, Sra)                      \
    OP(SLT,     "slt",      R, Alu, 1, Slt)                      \
    OP(SLTU,    "sltu",     R, Alu, 1, Sltu)                     \
    /* integer register-immediate */                             \
    OP(ADDI,    "addi",     I, Alu, 1, Addi)                     \
    OP(ANDI,    "andi",     I, Alu, 1, Andi)                     \
    OP(ORI,     "ori",      I, Alu, 1, Ori)                      \
    OP(XORI,    "xori",     I, Alu, 1, Xori)                     \
    OP(SLLI,    "slli",     I, Alu, 1, Slli)                     \
    OP(SRLI,    "srli",     I, Alu, 1, Srli)                     \
    OP(SRAI,    "srai",     I, Alu, 1, Srai)                     \
    OP(SLTI,    "slti",     I, Alu, 1, Slti)                     \
    OP(SLTIU,   "sltiu",    I, Alu, 1, Sltiu)                    \
    OP(LUI,     "lui",      U, Alu, 1, Lui)                      \
    /* single-precision floating point in the unified regfile */ \
    OP(FADD,    "fadd",     R, Fpu, 4, Fadd)                     \
    OP(FSUB,    "fsub",     R, Fpu, 4, Fsub)                     \
    OP(FMUL,    "fmul",     R, Fpu, 4, Fmul)                     \
    OP(FDIV,    "fdiv",     R, Fpu, 12, Fdiv)                    \
    OP(FMIN,    "fmin",     R, Fpu, 4, Fmin)                     \
    OP(FMAX,    "fmax",     R, Fpu, 4, Fmax)                     \
    OP(FLT,     "flt",      R, Fpu, 4, Flt)                      \
    OP(FLE,     "fle",      R, Fpu, 4, Fle)                      \
    OP(FEQ,     "feq",      R, Fpu, 4, Feq)                      \
    OP(FCVTSW,  "fcvt.s.w", R, Fpu, 4, Fcvtsw)                   \
    OP(FCVTWS,  "fcvt.w.s", R, Fpu, 4, Fcvtws)                   \
    /* memory */                                                 \
    OP(LW,      "lw",       I, Load, 2, Load)                    \
    OP(LH,      "lh",       I, Load, 2, Load)                    \
    OP(LHU,     "lhu",      I, Load, 2, Load)                    \
    OP(LB,      "lb",       I, Load, 2, Load)                    \
    OP(LBU,     "lbu",      I, Load, 2, Load)                    \
    OP(SW,      "sw",       S, Store, 1, Store)                  \
    OP(SH,      "sh",       S, Store, 1, Store)                  \
    OP(SB,      "sb",       S, Store, 1, Store)                  \
    /* atomic memory operations: rd <- M[rs1]; M[rs1] op= rs2 */ \
    OP(AMOADD,  "amoadd",   A, Amo, 3, Amo)                      \
    OP(AMOAND,  "amoand",   A, Amo, 3, Amo)                      \
    OP(AMOOR,   "amoor",    A, Amo, 3, Amo)                      \
    OP(AMOXOR,  "amoxor",   A, Amo, 3, Amo)                      \
    OP(AMOSWAP, "amoswap",  A, Amo, 3, Amo)                      \
    OP(AMOMIN,  "amomin",   A, Amo, 3, Amo)                      \
    OP(AMOMAX,  "amomax",   A, Amo, 3, Amo)                      \
    OP(FENCE,   "fence",    N, Misc, 1, Fence)                   \
    /* control flow (no delay slots) */                          \
    OP(BEQ,     "beq",      B, Branch, 1, Beq)                   \
    OP(BNE,     "bne",      B, Branch, 1, Bne)                   \
    OP(BLT,     "blt",      B, Branch, 1, Blt)                   \
    OP(BGE,     "bge",      B, Branch, 1, Bge)                   \
    OP(BLTU,    "bltu",     B, Branch, 1, Bltu)                  \
    OP(BGEU,    "bgeu",     B, Branch, 1, Bgeu)                  \
    OP(JAL,     "jal",      J, Jump, 1, Jal)                     \
    OP(JALR,    "jalr",     I, Jump, 1, Jalr)                    \
    /* XLOOPS loop instructions */                               \
    OP(XLOOP_UC,     "xloop.uc",     X, Xloop, 1, Xloop)         \
    OP(XLOOP_OR,     "xloop.or",     X, Xloop, 1, Xloop)         \
    OP(XLOOP_OM,     "xloop.om",     X, Xloop, 1, Xloop)         \
    OP(XLOOP_ORM,    "xloop.orm",    X, Xloop, 1, Xloop)         \
    OP(XLOOP_UA,     "xloop.ua",     X, Xloop, 1, Xloop)         \
    OP(XLOOP_UC_DB,  "xloop.uc.db",  X, Xloop, 1, Xloop)         \
    OP(XLOOP_OR_DB,  "xloop.or.db",  X, Xloop, 1, Xloop)         \
    OP(XLOOP_OM_DB,  "xloop.om.db",  X, Xloop, 1, Xloop)         \
    OP(XLOOP_ORM_DB, "xloop.orm.db", X, Xloop, 1, Xloop)         \
    OP(XLOOP_UA_DB,  "xloop.ua.db",  X, Xloop, 1, Xloop)         \
    /* extension: data-dependent exit (paper future work). The      \
       second register is an exit flag, not a bound: traditional    \
       execution loops while it reads zero; specialized execution   \
       cancels buffered iterations beyond the first exiting one,    \
       which is why only the memory-ordered patterns support it. */ \
    OP(XLOOP_OM_DE,  "xloop.om.de",  X, Xloop, 1, XloopDe)       \
    OP(XLOOP_ORM_DE, "xloop.orm.de", X, Xloop, 1, XloopDe)       \
    /* XLOOPS cross-iteration (mutual induction variable) adds */\
    OP(ADDIU_XI, "addiu.xi", XI, Xi, 1, AddiuXi)                 \
    OP(ADDU_XI,  "addu.xi",  XI, Xi, 1, AdduXi)                  \
    /* misc */                                                   \
    OP(NOP,     "nop",      N, Misc, 1, Nop)                     \
    OP(HALT,    "halt",     N, Misc, 1, Halt)                    \
    OP(CSRR,    "csrr",     C, Misc, 1, Csrr)

/** All xrisc opcodes. The numeric value is the 8-bit encoding field. */
enum class Op : u8
{
#define XLOOPS_OP_ENUM(name, mnem, fmt, fu, lat, handler) name,
    XLOOPS_OPCODE_LIST(XLOOPS_OP_ENUM)
#undef XLOOPS_OP_ENUM
    NumOpcodes
};

constexpr unsigned numOpcodes = static_cast<unsigned>(Op::NumOpcodes);

/** Inter-iteration data-dependence patterns an xloop can encode. */
enum class LoopPattern : u8
{
    UC,     ///< unordered concurrent
    OR,     ///< ordered through registers
    OM,     ///< ordered through memory
    ORM,    ///< ordered through registers and memory
    UA,     ///< unordered atomic
};

/** Static per-opcode properties. */
struct OpTraits
{
    const char *mnemonic;
    Format format;
    FuClass fuClass;
    u8 latency;
};

/** The traits of every opcode, indexed by opcode value. */
constexpr std::array<OpTraits, numOpcodes> opTraitsTable = {{
#define XLOOPS_OP_TRAITS(name, mnem, fmt, fu, lat, handler)           \
    OpTraits{mnem, Format::fmt, FuClass::fu, lat},
    XLOOPS_OPCODE_LIST(XLOOPS_OP_TRAITS)
#undef XLOOPS_OP_TRAITS
}};

/** Trait lookup for opcode @p op; panics on an out-of-range value. */
constexpr const OpTraits &
opTraits(Op op)
{
    const auto idx = static_cast<unsigned>(op);
    XL_ASSERT(idx < numOpcodes, "bad opcode ", idx);
    return opTraitsTable[idx];
}

/** True for all xloop.* opcodes. */
constexpr bool
isXloopOp(Op op)
{
    return op >= Op::XLOOP_UC && op <= Op::XLOOP_ORM_DE;
}

/** True for xloop.*.db opcodes. */
constexpr bool
isDynamicBoundOp(Op op)
{
    return op >= Op::XLOOP_UC_DB && op <= Op::XLOOP_UA_DB;
}

/** True for the xloop.*.de (data-dependent exit) extension opcodes. */
constexpr bool
isDataDepExitOp(Op op)
{
    return op == Op::XLOOP_OM_DE || op == Op::XLOOP_ORM_DE;
}

/** Data-dependence pattern of an xloop opcode. Panics on non-xloop. */
LoopPattern xloopPattern(Op op);

/** Human-readable name of a loop pattern ("uc", "or", ...). */
const char *patternName(LoopPattern pattern);

/** True when the opcode's FU class executes on the shared LLFU. */
inline bool
isLlfuClass(FuClass fu)
{
    return fu == FuClass::Mul || fu == FuClass::Div || fu == FuClass::Fpu;
}

} // namespace xloops

#endif // XLOOPS_ISA_OPCODES_H
