/**
 * @file
 * Decoded xrisc instruction plus binary encode/decode.
 *
 * Encoding layout (32-bit word, opcode always in [31:24]):
 *
 *   R  : op[31:24] rd[23:19] rs1[18:14] rs2[13:9] 0[8:0]
 *   I  : op[31:24] rd[23:19] rs1[18:14] imm14[13:0]          (signed)
 *   S  : op[31:24] rs2[23:19] rs1[18:14] imm14[13:0]         (signed)
 *   U  : op[31:24] rd[23:19] imm19[18:0]                     (unsigned)
 *   B  : op[31:24] rs1[23:19] rs2[18:14] imm14[13:0]  word offset (signed)
 *   J  : op[31:24] rd[23:19] imm19[18:0]              word offset (signed)
 *   X  : op[31:24] rIdx[23:19] rBound[18:14] hint[13] imm13[12:0]
 *        imm13 is a signed word offset to the loop-body label L and must
 *        be negative (the body lies strictly before the xloop).
 *   XI : addiu.xi: op rd[23:19] 0[18:14] imm14[13:0]; rs1 == rd implicit
 *        addu.xi : op rd[23:19] rs2[18:14] 0
 *   A  : op[31:24] rd[23:19] rs1[18:14] rs2[13:9] 0[8:0]
 *   C  : op[31:24] rd[23:19] imm19[18:0] (CSR number)
 *   N  : op[31:24] 0
 */

#ifndef XLOOPS_ISA_INSTRUCTION_H
#define XLOOPS_ISA_INSTRUCTION_H

#include "common/types.h"
#include "isa/op_meta.h"
#include "isa/opcodes.h"

namespace xloops {

/** A decoded instruction; the unit the simulators operate on. */
struct Instruction
{
    Op op = Op::NOP;
    RegId rd = 0;
    RegId rs1 = 0;
    RegId rs2 = 0;
    i32 imm = 0;
    bool hint = false;  ///< xloop specialization hint (X format only)

    /** Encode into the 32-bit binary form. Panics if fields overflow. */
    u32 encode() const;

    /** Decode a 32-bit word. Throws FatalError on an unknown opcode. */
    static Instruction decode(u32 word);

    const OpTraits &traits() const { return opTraits(op); }

    bool isXloop() const { return isXloopOp(op); }
    bool isDynamicBound() const { return isDynamicBoundOp(op); }
    bool isDataDepExit() const { return isDataDepExitOp(op); }
    LoopPattern pattern() const { return xloopPattern(op); }

    bool isLoad() const { return traits().fuClass == FuClass::Load; }
    bool isStore() const { return traits().fuClass == FuClass::Store; }
    bool isAmo() const { return traits().fuClass == FuClass::Amo; }
    bool isMem() const { return isLoad() || isStore() || isAmo(); }
    bool isBranch() const { return traits().fuClass == FuClass::Branch; }
    bool isJump() const { return traits().fuClass == FuClass::Jump; }
    bool isControl() const { return isBranch() || isJump() || isXloop(); }
    bool isLlfu() const { return isLlfuClass(traits().fuClass); }
    bool isXi() const { return traits().fuClass == FuClass::Xi; }

    /** Destination register, or 32 (invalid) when none is written. */
    RegId
    destReg() const
    {
        // r0 writes are discarded; xloops write rIdx in traditional exec.
        return opMeta(op).writesRd && rd != 0 ? rd : numArchRegs;
    }

    /** Source registers; count returned, regs written to @p out[0..1]. */
    unsigned
    srcRegs(RegId out[2]) const
    {
        const OpMeta &m = opMeta(op);
        unsigned n = 0;
        if (m.readsRd)
            out[n++] = rd;  // xloop rIdx, xi MIV
        if (m.readsRs1)
            out[n++] = rs1;
        if (m.readsRs2)
            out[n++] = rs2;
        return n;
    }

    bool operator==(const Instruction &other) const = default;
};

} // namespace xloops

#endif // XLOOPS_ISA_INSTRUCTION_H
