#include "isa/instruction.h"

#include "common/log.h"

namespace xloops {

LoopPattern
xloopPattern(Op op)
{
    switch (op) {
      case Op::XLOOP_UC: case Op::XLOOP_UC_DB: return LoopPattern::UC;
      case Op::XLOOP_OR: case Op::XLOOP_OR_DB: return LoopPattern::OR;
      case Op::XLOOP_OM: case Op::XLOOP_OM_DB: case Op::XLOOP_OM_DE:
        return LoopPattern::OM;
      case Op::XLOOP_ORM: case Op::XLOOP_ORM_DB: case Op::XLOOP_ORM_DE:
        return LoopPattern::ORM;
      case Op::XLOOP_UA: case Op::XLOOP_UA_DB: return LoopPattern::UA;
      default:
        panic(strf("xloopPattern on non-xloop opcode ",
                   opTraits(op).mnemonic));
    }
}

const char *
patternName(LoopPattern pattern)
{
    switch (pattern) {
      case LoopPattern::UC: return "uc";
      case LoopPattern::OR: return "or";
      case LoopPattern::OM: return "om";
      case LoopPattern::ORM: return "orm";
      case LoopPattern::UA: return "ua";
    }
    return "?";
}

u32
Instruction::encode() const
{
    const u32 opf = static_cast<u32>(op) << 24;
    auto reg = [](RegId r, unsigned lo) {
        XL_ASSERT(r < numArchRegs, "register out of range");
        return static_cast<u32>(r) << lo;
    };
    auto simm = [this](i32 v, unsigned bitCount) -> u32 {
        if (!fitsSigned(v, bitCount)) {
            fatal(strf("immediate ", v, " does not fit in ", bitCount,
                       " bits for ", traits().mnemonic));
        }
        return static_cast<u32>(v) & ((1u << bitCount) - 1);
    };

    switch (traits().format) {
      case Format::R:
      case Format::A:
        return opf | reg(rd, 19) | reg(rs1, 14) | reg(rs2, 9);
      case Format::I:
        return opf | reg(rd, 19) | reg(rs1, 14) | simm(imm, 14);
      case Format::S:
        return opf | reg(rs2, 19) | reg(rs1, 14) | simm(imm, 14);
      case Format::U:
      case Format::C:
        XL_ASSERT(imm >= 0 && imm < (1 << 19), "U imm out of range");
        return opf | reg(rd, 19) | static_cast<u32>(imm);
      case Format::B:
        return opf | reg(rs1, 19) | reg(rs2, 14) | simm(imm, 14);
      case Format::J:
        return opf | reg(rd, 19) | simm(imm, 19);
      case Format::X:
        if (imm >= 0)
            fatal("xloop body label must precede the xloop instruction");
        return opf | reg(rd, 19) | reg(rs1, 14) |
               (hint ? (1u << 13) : 0) | simm(imm, 13);
      case Format::XI:
        if (op == Op::ADDIU_XI)
            return opf | reg(rd, 19) | simm(imm, 14);
        return opf | reg(rd, 19) | reg(rs2, 14);
      case Format::N:
        return opf;
    }
    panic("unhandled format in encode");
}

Instruction
Instruction::decode(u32 word)
{
    const u32 opIdx = bits(word, 31, 24);
    if (opIdx >= numOpcodes)
        fatal(strf("illegal instruction word 0x", std::hex, word));

    Instruction inst;
    inst.op = static_cast<Op>(opIdx);

    switch (inst.traits().format) {
      case Format::R:
      case Format::A:
        inst.rd = static_cast<RegId>(bits(word, 23, 19));
        inst.rs1 = static_cast<RegId>(bits(word, 18, 14));
        inst.rs2 = static_cast<RegId>(bits(word, 13, 9));
        break;
      case Format::I:
        inst.rd = static_cast<RegId>(bits(word, 23, 19));
        inst.rs1 = static_cast<RegId>(bits(word, 18, 14));
        inst.imm = signExtend(bits(word, 13, 0), 14);
        break;
      case Format::S:
        inst.rs2 = static_cast<RegId>(bits(word, 23, 19));
        inst.rs1 = static_cast<RegId>(bits(word, 18, 14));
        inst.imm = signExtend(bits(word, 13, 0), 14);
        break;
      case Format::U:
      case Format::C:
        inst.rd = static_cast<RegId>(bits(word, 23, 19));
        inst.imm = static_cast<i32>(bits(word, 18, 0));
        break;
      case Format::B:
        inst.rs1 = static_cast<RegId>(bits(word, 23, 19));
        inst.rs2 = static_cast<RegId>(bits(word, 18, 14));
        inst.imm = signExtend(bits(word, 13, 0), 14);
        break;
      case Format::J:
        inst.rd = static_cast<RegId>(bits(word, 23, 19));
        inst.imm = signExtend(bits(word, 18, 0), 19);
        break;
      case Format::X:
        inst.rd = static_cast<RegId>(bits(word, 23, 19));
        inst.rs1 = static_cast<RegId>(bits(word, 18, 14));
        inst.hint = bits(word, 13, 13) != 0;
        inst.imm = signExtend(bits(word, 12, 0), 13);
        break;
      case Format::XI:
        inst.rd = static_cast<RegId>(bits(word, 23, 19));
        if (inst.op == Op::ADDIU_XI) {
            inst.imm = signExtend(bits(word, 13, 0), 14);
        } else {
            inst.rs2 = static_cast<RegId>(bits(word, 18, 14));
        }
        break;
      case Format::N:
        break;
    }
    return inst;
}

} // namespace xloops
