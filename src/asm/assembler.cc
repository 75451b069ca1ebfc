#include "asm/assembler.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <forward_list>
#include <iterator>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "common/log.h"

namespace xloops {

namespace {

/** A pseudo-instruction: the operand count and form it needs and, if
 *  it is one instruction, that opcode and where each operand comes
 *  from, read in order: source operand '0'-'2', 'z' the zero register
 *  or 'i' the immediate 0. li and la expand in code. */
struct PseudoOp
{
    const char *name;
    size_t operands;
    const char *form;
    Op op;
    const char *shape;
};

constexpr PseudoOp pseudoOps[] = {
    {"li", 2, "rd, imm", Op::NOP, nullptr},
    {"la", 2, "rd, symbol", Op::NOP, nullptr},
    {"mov", 2, "rd, rs", Op::ADDI, "01i"},
    {"j", 1, "label", Op::JAL, "z0"},
    {"beqz", 2, "rs, label", Op::BEQ, "0z1"},
    {"bnez", 2, "rs, label", Op::BNE, "0z1"},
    {"bgt", 3, "rs, rt, label", Op::BLT, "102"},
    {"ble", 3, "rs, rt, label", Op::BGE, "102"},
    {"not", 2, "rd, rs", Op::NOR, "01z"},
    {"neg", 2, "rd, rs", Op::SUB, "0z1"},
};

/** What a mnemonic names: an opcode, or a pseudo-instruction. */
struct Mnemonic
{
    Op op;
    const PseudoOp *pseudo;
};

/** The one mnemonic table: every pseudo-op, then every opcode's
 *  mnemonic from the trait table (a pseudo-op wins a name clash).
 *  Null when @p name is neither. */
const Mnemonic *
lookupMnemonic(std::string_view name)
{
    static const auto table = [] {
        std::unordered_map<std::string_view, Mnemonic> t;
        for (const PseudoOp &p : pseudoOps)
            t.emplace(p.name, Mnemonic{p.op, &p});
        for (unsigned i = 0; i < numOpcodes; i++)
            t.emplace(opTraits(Op(i)).mnemonic, Mnemonic{Op(i), nullptr});
        return t;
    }();
    const auto it = table.find(name);
    return it == table.end() ? nullptr : &it->second;
}

/** std::isspace. Its answer for ASCII is the same in every locale, so
 *  that is computed inline; other bytes ask the locale. */
bool
isSpace(char c)
{
    const auto u = static_cast<unsigned char>(c);
    return u < 0x80 ? u == ' ' || (u >= '\t' && u <= '\r') : std::isspace(u);
}

/** The part of a symbol's address an operand takes: as written (a
 *  "%hi:" or "%lo:" name prefix picks one), or what `la` asked for. */
enum class Part : u8 { AsWritten, Hi, Lo };

struct Operand
{
    enum Kind : u8 { Reg, Imm, Sym, MemRef, AmoRef } kind = Imm;
    RegId reg = 0;          // Reg, AmoRef; MemRef base
    i64 imm = 0;            // Imm; MemRef offset
    std::string_view sym{}; // Sym; MemRef symbolic offset when !sym.empty()
    Part part = Part::AsWritten;  // Sym; symbolic MemRef
};

/** An instruction of pass 1, encoded in pass 2 once every label is
 *  known. Operands past the third only count: no format takes them. */
struct Item
{
    Op op = Op::NOP;
    bool hint = true;
    int line = 0;
    size_t numOps = 0;
    std::array<Operand, 3> ops;
};

/** A `.word sym` slot: four data bytes patched after pass 1. */
struct WordSlot
{
    size_t offset;
    Operand sym;
    int line;
};

class Parser
{
  public:
    Parser(std::string_view source, Addr text_base, Addr data_base)
        : src(source), textBase(text_base), dataBase(data_base)
    {}

    Program run();

  private:
    [[noreturn]] void
    err(const std::string &msg) const
    {
        fatal(strf("asm line ", lineNo, ": ", msg));
    }

    std::optional<RegId> parseReg(std::string_view tok) const;
    i64 parseNumber(std::string_view tok, bool &ok) const;
    Operand parseOperand(std::string_view tok) const;
    bool nextOperand(std::string_view &rest, std::string_view &out);

    void handleLine(std::string_view line);
    void handleDirective(std::string_view dir, std::string_view rest);
    void handleInst(std::string_view mnem, std::string_view rest);
    void expandPseudo(const PseudoOp &p, std::string_view rest);
    void addItem(const Item &item);

    // Pass 2:
    Instruction encodeItem(const Item &item, Addr addr);
    Addr resolve(const Operand &tok, int line) const;

    std::string_view src;
    Addr textBase;
    Addr dataBase;
    int lineNo = 0;
    bool inTextSec = true;

    std::vector<Item> items;
    std::vector<u8> data;  // the data segment, written once
    std::vector<WordSlot> wordSlots;
    /** Operands that had whitespace inside, packed; views into them
     *  stay valid as the list grows. */
    std::forward_list<std::string> packed;
    Program prog;  // symbols are entered here as pass 1 meets them
};

std::optional<RegId>
Parser::parseReg(std::string_view tok) const
{
    if (tok == "zero")
        return RegId{0};
    if (tok.size() >= 2 && tok[0] == 'r' &&
        std::isdigit(static_cast<unsigned char>(tok[1]))) {
        unsigned value = 0;
        for (size_t i = 1; i < tok.size(); i++) {
            if (!std::isdigit(static_cast<unsigned char>(tok[i])))
                return std::nullopt;
            value = value * 10 + (tok[i] - '0');
        }
        if (value >= numArchRegs)
            err(strf("register ", tok, " out of range"));
        return static_cast<RegId>(value);
    }
    return std::nullopt;
}

i64
Parser::parseNumber(std::string_view tok, bool &ok) const
{
    ok = false;
    if (tok.empty())
        return 0;
    size_t pos = 0;
    bool neg = false;
    if (tok[pos] == '-') {
        neg = true;
        pos++;
    }
    if (pos >= tok.size())
        return 0;
    i64 value = 0;
    // Far beyond any field, and far from i64 overflow.
    auto accumulate = [&](i64 base, int digit) {
        value = value * base + digit;
        if (value > (i64{1} << 40))
            err(strf("number ", tok, " out of range"));
    };
    if (tok.compare(pos, 2, "0x") == 0 || tok.compare(pos, 2, "0X") == 0) {
        pos += 2;
        if (pos >= tok.size())
            return 0;
        for (; pos < tok.size(); pos++) {
            const char c = static_cast<char>(
                std::tolower(static_cast<unsigned char>(tok[pos])));
            if (c >= '0' && c <= '9')
                accumulate(16, c - '0');
            else if (c >= 'a' && c <= 'f')
                accumulate(16, c - 'a' + 10);
            else
                return 0;
        }
    } else {
        for (; pos < tok.size(); pos++) {
            if (!std::isdigit(static_cast<unsigned char>(tok[pos])))
                return 0;
            accumulate(10, tok[pos] - '0');
        }
    }
    ok = true;
    return neg ? -value : value;
}

Operand
Parser::parseOperand(std::string_view tok) const
{
    const auto symOrImm = [&](std::string_view t) {
        bool ok = false;
        const i64 value = parseNumber(t, ok);
        return ok ? Operand{Operand::Imm, 0, value}
                  : Operand{Operand::Sym, 0, 0, t};
    };

    // AMO address operand: (rN)
    if (tok.front() == '(' && tok.back() == ')') {
        const auto reg = parseReg(tok.substr(1, tok.size() - 2));
        if (!reg)
            err(strf("bad amo address operand ", tok));
        return Operand{Operand::AmoRef, *reg};
    }

    // Memory reference: offset(rN) or sym(rN)
    const auto open = tok.find('(');
    if (open != std::string_view::npos && tok.back() == ')') {
        const auto reg = parseReg(tok.substr(open + 1,
                                             tok.size() - open - 2));
        if (!reg)
            err(strf("bad base register in ", tok));
        Operand t = open == 0 ? Operand{} : symOrImm(tok.substr(0, open));
        t.kind = Operand::MemRef;
        t.reg = *reg;
        return t;
    }

    if (const auto reg = parseReg(tok))
        return Operand{Operand::Reg, *reg};
    return symOrImm(tok);
}

bool
Parser::nextOperand(std::string_view &rest, std::string_view &out)
{
    // Operands are split at commas, lose all their whitespace, and an
    // empty one is skipped.
    while (!rest.empty()) {
        const size_t comma = rest.find(',');
        std::string_view piece = rest.substr(0, comma);
        rest.remove_prefix(comma == std::string_view::npos ? rest.size()
                                                           : comma + 1);
        while (!piece.empty() && isSpace(piece.front()))
            piece.remove_prefix(1);
        while (!piece.empty() && isSpace(piece.back()))
            piece.remove_suffix(1);
        if (piece.empty())
            continue;
        if (std::any_of(piece.begin(), piece.end(), isSpace)) {
            std::string &p = packed.emplace_front();
            std::remove_copy_if(piece.begin(), piece.end(),
                                std::back_inserter(p), isSpace);
            piece = p;
        }
        out = piece;
        return true;
    }
    return false;
}

void
Parser::addItem(const Item &item)
{
    if (!inTextSec)
        err("instruction outside .text");
    items.push_back(item);
    items.back().line = lineNo;
}

void
Parser::expandPseudo(const PseudoOp &p, std::string_view rest)
{
    std::array<std::string_view, 3> ops;
    size_t n = 0;
    for (std::string_view o; nextOperand(rest, o); n++)
        if (n < ops.size())
            ops[n] = o;
    // Every pseudo-op checks its operand count before reading any.
    if (n != p.operands)
        err(strf(p.name, " needs ", p.form));
    if (p.shape) {
        Item item;
        item.op = p.op;
        for (const char *c = p.shape; *c; c++)
            item.ops[item.numOps++] =
                *c == 'z'   ? Operand{Operand::Reg, 0}
                : *c == 'i' ? Operand{Operand::Imm, 0, 0}
                            : parseOperand(ops[*c - '0']);
        addItem(item);
        return;
    }

    const auto addInst = [&](Op op, std::initializer_list<Operand> args) {
        Item item;
        item.op = op;
        item.numOps = args.size();
        std::copy(args.begin(), args.end(), item.ops.begin());
        addItem(item);
    };
    const Operand rd = parseOperand(ops[0]);
    const Operand val = parseOperand(ops[1]);
    if (p.name == std::string_view("la")) {
        if (rd.kind != Operand::Reg || val.kind != Operand::Sym)
            err("la needs rd, symbol");
        // Fixed two-instruction expansion so pass-1 sizing is stable.
        // The symbol is taken as written, prefix and all.
        const Operand hi{Operand::Sym, 0, 0, ops[1], Part::Hi};
        addInst(Op::LUI, {rd, hi});
        addInst(Op::ORI, {rd, rd, Operand{hi.kind, 0, 0, hi.sym, Part::Lo}});
        return;
    }
    if (rd.kind != Operand::Reg || val.kind != Operand::Imm)
        err("li needs rd, literal");
    if (val.imm < -(i64{1} << 31) || val.imm > i64{0xffffffff})
        err(strf("li operand ", val.imm, " does not fit in 32 bits"));
    if (fitsSigned(val.imm, 14)) {
        addInst(Op::ADDI, {rd, Operand{Operand::Reg, 0}, val});
    } else {
        const u32 uv = static_cast<u32>(val.imm);
        addInst(Op::LUI, {rd, Operand{Operand::Imm, 0, uv >> 13}});
        const Operand lo{Operand::Imm, 0, uv & 0x1fff};
        if (lo.imm != 0)
            addInst(Op::ORI, {rd, rd, lo});
    }
}

void
Parser::handleInst(std::string_view mnem, std::string_view rest)
{
    const Mnemonic *m = lookupMnemonic(mnem);
    if (!m)
        err(strf("unknown mnemonic '", mnem, "'"));
    if (m->pseudo) {
        expandPseudo(*m->pseudo, rest);
        return;
    }

    Item item;
    item.op = m->op;
    for (std::string_view o; nextOperand(rest, o);) {
        if (o == "nohint") {
            item.hint = false;
            continue;
        }
        const Operand t = parseOperand(o);
        if (item.numOps < item.ops.size())
            item.ops[item.numOps] = t;
        item.numOps++;
    }
    addItem(item);
}

void
Parser::handleDirective(std::string_view dir, std::string_view rest)
{
    // The data segment must end inside the 32-bit address space: a
    // directive that would carry it past 0xffffffff is an error,
    // checked in 64 bits before its bytes are allocated.
    auto checkFits = [&](u64 bytes) {
        if (u64{dataBase} + data.size() + bytes > (u64{1} << 32))
            err(strf(dir, " of ", bytes, " bytes ends the data segment "
                     "past 0xffffffff"));
    };
    auto addWord = [&](u32 v) {
        checkFits(4);
        for (unsigned b = 0; b < 4; b++)
            data.push_back(static_cast<u8>(v >> (8 * b)));
    };

    if (dir == ".text") {
        inTextSec = true;
        return;
    }
    if (dir == ".data") {
        inTextSec = false;
        return;
    }
    const bool isFloat = dir == ".float";
    if (inTextSec && (dir == ".word" || dir == ".space" || dir == ".byte" ||
                      dir == ".half" || dir == ".align" || isFloat))
        err("data directive inside .text");

    if (dir == ".word" || isFloat) {
        for (std::string_view o; nextOperand(rest, o);) {
            if (isFloat) {
                // Parse as decimal float literal. A segment overflow
                // thrown inside the try is reported as a bad literal.
                try {
                    const float f = std::stof(std::string(o));
                    u32 v;
                    static_assert(sizeof(v) == sizeof(f));
                    __builtin_memcpy(&v, &f, 4);
                    addWord(v);
                    continue;
                } catch (const std::exception &) {
                    err(strf("bad float literal ", o));
                }
            }
            bool ok = false;
            const i64 value = parseNumber(o, ok);
            if (ok) {
                addWord(static_cast<u32>(value));
            } else {
                // A symbol slot, patched after pass 1.
                checkFits(4);
                wordSlots.push_back(
                    {data.size(), Operand{Operand::Sym, 0, 0, o}, lineNo});
                data.resize(data.size() + 4);
            }
        }
        return;
    }
    if (dir == ".half" || dir == ".byte") {
        const unsigned width = (dir == ".half") ? 2 : 1;
        for (std::string_view o; nextOperand(rest, o);) {
            bool ok = false;
            const i64 value = parseNumber(o, ok);
            if (!ok)
                err(strf("bad ", dir, " literal ", o));
            checkFits(width);
            for (unsigned i = 0; i < width; i++)
                data.push_back(static_cast<u8>(value >> (8 * i)));
        }
        return;
    }
    if (dir == ".space") {
        bool ok = false;
        const i64 n = parseNumber(rest, ok);
        if (!ok || n < 0)
            err("bad .space size");
        checkFits(static_cast<u64>(n));
        data.resize(data.size() + static_cast<size_t>(n));
        return;
    }
    if (dir == ".align") {
        bool ok = false;
        const i64 a = parseNumber(rest, ok);
        if (!ok || a <= 0 || (a & (a - 1)))
            err("bad .align");
        // Pad to the next address that is a multiple of a.
        const u64 mask = static_cast<u64>(a) - 1;
        const u64 at = u64{dataBase} + data.size();
        const u64 pad = (static_cast<u64>(a) - (at & mask)) & mask;
        checkFits(pad);
        data.resize(data.size() + static_cast<size_t>(pad));
        return;
    }
    err(strf("unknown directive '", dir, "'"));
}

void
Parser::handleLine(std::string_view line)
{
    // Strip comments.
    line = line.substr(0, std::min(line.find('#'), line.find(';')));

    // Peel off leading labels.
    for (;;) {
        size_t i = 0;
        while (i < line.size() && isSpace(line[i]))
            i++;
        size_t j = i;
        while (j < line.size() &&
               (std::isalnum(static_cast<unsigned char>(line[j])) ||
                line[j] == '_' || line[j] == '.'))
            j++;
        if (j < line.size() && line[j] == ':' && j > i && line[i] != '.') {
            const std::string_view label = line.substr(i, j - i);
            const Addr at = inTextSec ? textBase + Addr(4 * items.size())
                                      : dataBase + Addr(data.size());
            if (!prog.symbols.emplace(label, at).second)
                err(strf("duplicate label '", label, "'"));
            line.remove_prefix(j + 1);
            continue;
        }
        break;
    }

    // Tokenize mnemonic/directive.
    size_t i = 0;
    while (i < line.size() && isSpace(line[i]))
        i++;
    if (i >= line.size())
        return;
    size_t j = i;
    while (j < line.size() && !isSpace(line[j]))
        j++;
    const std::string_view head = line.substr(i, j - i);
    const std::string_view rest =
        j < line.size() ? line.substr(j + 1) : std::string_view();

    if (head[0] == '.')
        handleDirective(head, rest);
    else
        handleInst(head, rest);
}

Addr
Parser::resolve(const Operand &tok, int line) const
{
    std::string_view name = tok.sym;
    Part part = tok.part;
    if (part == Part::AsWritten &&
        (name.starts_with("%hi:") || name.starts_with("%lo:"))) {
        part = name[1] == 'h' ? Part::Hi : Part::Lo;
        name.remove_prefix(4);
    }
    const auto it = prog.symbols.find(name);
    if (it == prog.symbols.end())
        fatal(strf("asm line ", line, ": undefined symbol '", name, "'"));
    if (part == Part::Hi)
        return it->second >> 13;
    if (part == Part::Lo)
        return it->second & 0x1fff;
    return it->second;
}

Instruction
Parser::encodeItem(const Item &item, Addr addr)
{
    const Op op = item.op;
    const OpTraits &tr = opTraits(op);
    const char *mnemonic = tr.mnemonic;
    Instruction inst;
    inst.op = op;
    inst.hint = item.hint;
    lineNo = item.line;

    auto immOf = [&](const Operand &t) -> i64 {
        if (t.kind == Operand::Imm)
            return t.imm;
        if (t.kind == Operand::Sym || t.kind == Operand::MemRef) {
            if (t.kind == Operand::MemRef && t.sym.empty())
                return t.imm;
            return static_cast<i64>(resolve(t, item.line));
        }
        err("expected immediate or symbol operand");
    };
    auto regOf = [&](const Operand &t) -> RegId {
        if (t.kind != Operand::Reg)
            err(strf("expected register operand in ", mnemonic));
        return t.reg;
    };
    auto wordOffset = [&](const Operand &t) -> i64 {
        const i64 target = immOf(t);
        const i64 delta = target - static_cast<i64>(addr);
        if (delta % 4 != 0)
            err("misaligned branch target");
        return delta / 4;
    };
    // Every field is range-checked as an i64 before it narrows, so an
    // operand that does not fit is an error naming the line, never a
    // silent wrap or an encoder assertion.
    auto field = [&](i64 v, i64 lo, i64 hi) -> i32 {
        if (v < lo || v > hi) {
            err(strf(mnemonic, " operand ", v, " out of range [", lo, ", ",
                     hi, "]"));
        }
        return static_cast<i32>(v);
    };
    auto simm = [&](i64 v, unsigned bits) {
        return field(v, -(i64{1} << (bits - 1)), (i64{1} << (bits - 1)) - 1);
    };
    const auto &ops = item.ops;
    auto need = [&](size_t n) {
        if (item.numOps != n)
            err(strf(mnemonic, " expects ", n, " operands, got ",
                     item.numOps));
    };

    switch (tr.format) {
      case Format::R:
        need(3);
        inst.rd = regOf(ops[0]);
        inst.rs1 = regOf(ops[1]);
        inst.rs2 = regOf(ops[2]);
        break;
      case Format::A:
        need(3);
        inst.rd = regOf(ops[0]);
        inst.rs2 = regOf(ops[1]);
        if (ops[2].kind != Operand::AmoRef)
            err("amo needs (rN) address operand");
        inst.rs1 = ops[2].reg;
        break;
      case Format::I:
        if (tr.fuClass == FuClass::Load) {
            need(2);
            inst.rd = regOf(ops[0]);
            if (ops[1].kind != Operand::MemRef)
                err("load needs offset(base) operand");
            inst.rs1 = ops[1].reg;
            inst.imm = simm(immOf(ops[1]), 14);
        } else if (op == Op::JALR) {
            need(2);
            inst.rd = regOf(ops[0]);
            inst.rs1 = regOf(ops[1]);
        } else {
            need(3);
            inst.rd = regOf(ops[0]);
            inst.rs1 = regOf(ops[1]);
            inst.imm = simm(immOf(ops[2]), 14);
        }
        break;
      case Format::S:
        need(2);
        inst.rs2 = regOf(ops[0]);
        if (ops[1].kind != Operand::MemRef)
            err("store needs offset(base) operand");
        inst.rs1 = ops[1].reg;
        inst.imm = simm(immOf(ops[1]), 14);
        break;
      case Format::U:
      case Format::C:
        need(2);
        inst.rd = regOf(ops[0]);
        inst.imm = field(immOf(ops[1]), 0, (i64{1} << 19) - 1);
        break;
      case Format::B:
        need(3);
        inst.rs1 = regOf(ops[0]);
        inst.rs2 = regOf(ops[1]);
        inst.imm = simm(wordOffset(ops[2]), 14);
        break;
      case Format::J:
        need(2);
        inst.rd = regOf(ops[0]);
        inst.imm = simm(wordOffset(ops[1]), 19);
        break;
      case Format::X:
        need(3);
        inst.rd = regOf(ops[0]);
        inst.rs1 = regOf(ops[1]);
        inst.imm = simm(wordOffset(ops[2]), 13);
        if (inst.imm >= 0)
            err("xloop body label must precede the xloop instruction");
        break;
      case Format::XI:
        need(2);
        inst.rd = regOf(ops[0]);
        if (op == Op::ADDIU_XI)
            inst.imm = simm(immOf(ops[1]), 14);
        else
            inst.rs2 = regOf(ops[1]);
        break;
      case Format::N:
        need(0);
        break;
    }
    return inst;
}

Program
Parser::run()
{
    // Pass 1, one line at a time. A line is at most one instruction
    // (two for li and la); the data lists of compiled programs fit in
    // the source's size, and a large .space grows them once.
    items.reserve(std::count(src.begin(), src.end(), '\n') + 1);
    data.reserve(src.size());
    for (size_t pos = 0;;) {
        const size_t nl = src.find('\n', pos);
        lineNo++;
        handleLine(src.substr(pos, nl - pos));
        if (nl == std::string_view::npos)
            break;
        pos = nl + 1;
    }

    // Pass 2: encode the text, then patch the data's symbol slots.
    prog.textBase = prog.entry = textBase;
    prog.text.reserve(items.size());
    for (size_t i = 0; i < items.size(); i++) {
        const Addr addr = textBase + static_cast<Addr>(4 * i);
        prog.text.push_back(encodeItem(items[i], addr).encode());
    }
    for (const WordSlot &slot : wordSlots) {
        const u32 v = resolve(slot.sym, slot.line);
        for (unsigned b = 0; b < 4; b++)
            data[slot.offset + b] = static_cast<u8>(v >> (8 * b));
    }
    if (!data.empty())
        prog.data.push_back({dataBase, std::move(data)});
    return std::move(prog);
}

} // namespace

Program
assemble(const std::string &source, Addr textBase, Addr dataBase)
{
    Parser parser(source, textBase, dataBase);
    return parser.run();
}

} // namespace xloops
