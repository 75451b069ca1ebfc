#include "asm/assembler.h"

#include <cctype>
#include <map>
#include <optional>

#include "common/log.h"

namespace xloops {

namespace {

/** Mnemonic -> opcode map built from the trait table. */
const std::map<std::string, Op> &
mnemonicMap()
{
    static const std::map<std::string, Op> map = [] {
        std::map<std::string, Op> m;
        for (unsigned i = 0; i < numOpcodes; i++) {
            const auto op = static_cast<Op>(i);
            m[opTraits(op).mnemonic] = op;
        }
        return m;
    }();
    return map;
}

struct Token
{
    enum Kind { Reg, Imm, Sym, MemRef, AmoRef } kind;
    RegId reg = 0;      // Reg, AmoRef; MemRef base
    i64 imm = 0;        // Imm; MemRef offset
    std::string sym;    // Sym; MemRef symbolic offset when !sym.empty()
};

/** One parsed source item: either an instruction or a data emission. */
struct Item
{
    enum Kind { Inst, Data } kind = Inst;
    // Inst:
    std::string mnemonic;
    std::vector<Token> operands;
    bool hint = true;
    // Data: raw bytes, or a symbol slot (4 bytes patched in pass 2).
    std::vector<u8> bytes;
    std::string wordSym;
    // Common:
    Addr addr = 0;
    int line = 0;
};

class Parser
{
  public:
    Parser(const std::string &source, Addr text_base, Addr data_base)
        : src(source), textBase(text_base), dataBase(data_base)
    {}

    Program run();

  private:
    [[noreturn]] void
    err(const std::string &msg) const
    {
        fatal(strf("asm line ", lineNo, ": ", msg));
    }

    std::optional<RegId> parseReg(const std::string &tok) const;
    i64 parseNumber(const std::string &tok, bool &ok) const;
    Token parseOperand(const std::string &tok) const;
    std::vector<std::string> splitOperands(const std::string &rest) const;

    void handleLine(std::string line);
    void handleDirective(const std::string &dir, const std::string &rest);
    void handleInst(const std::string &mnem, const std::string &rest);
    void emitInst(const Item &item);

    /** Expand pseudo-instructions; true when @p mnem was a pseudo. */
    bool expandPseudo(const std::string &mnem,
                      const std::vector<std::string> &ops);

    void addInstItem(const std::string &mnem, std::vector<Token> operands,
                     bool hint = true);

    Token symOrImm(const std::string &tok) const;

    // Pass 2:
    Instruction
    encodeItem(const Item &item, const std::map<std::string, Addr> &syms);
    Addr resolve(const Token &tok, const std::map<std::string, Addr> &syms,
                 int line) const;

    const std::string &src;
    Addr textBase;
    Addr dataBase;
    int lineNo = 0;
    bool inTextSec = true;

    std::vector<Item> textItems;
    std::vector<Item> dataItems;
    Addr textCursor = 0;   // byte offset within .text
    Addr dataCursor = 0;   // byte offset within .data
    std::map<std::string, Addr> symbols;
};

std::optional<RegId>
Parser::parseReg(const std::string &tok) const
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
Parser::parseNumber(const std::string &tok, bool &ok) const
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

Token
Parser::symOrImm(const std::string &tok) const
{
    bool ok = false;
    const i64 value = parseNumber(tok, ok);
    if (ok)
        return Token{Token::Imm, 0, value, ""};
    return Token{Token::Sym, 0, 0, tok};
}

Token
Parser::parseOperand(const std::string &tok) const
{
    if (tok.empty())
        err("empty operand");

    // AMO address operand: (rN)
    if (tok.front() == '(' && tok.back() == ')') {
        const auto reg = parseReg(tok.substr(1, tok.size() - 2));
        if (!reg)
            err(strf("bad amo address operand ", tok));
        return Token{Token::AmoRef, *reg, 0, ""};
    }

    // Memory reference: offset(rN) or sym(rN)
    const auto open = tok.find('(');
    if (open != std::string::npos && tok.back() == ')') {
        const std::string off = tok.substr(0, open);
        const auto reg = parseReg(tok.substr(open + 1,
                                             tok.size() - open - 2));
        if (!reg)
            err(strf("bad base register in ", tok));
        Token t = off.empty() ? Token{Token::Imm, 0, 0, ""} : symOrImm(off);
        t.kind = Token::MemRef;
        t.reg = *reg;
        return t;
    }

    if (const auto reg = parseReg(tok))
        return Token{Token::Reg, *reg, 0, ""};
    return symOrImm(tok);
}

std::vector<std::string>
Parser::splitOperands(const std::string &rest) const
{
    std::vector<std::string> out;
    std::string cur;
    for (const char c : rest) {
        if (c == ',') {
            if (!cur.empty()) {
                out.push_back(cur);
                cur.clear();
            }
        } else if (std::isspace(static_cast<unsigned char>(c))) {
            continue;
        } else {
            cur += c;
        }
    }
    if (!cur.empty())
        out.push_back(cur);
    return out;
}

void
Parser::addInstItem(const std::string &mnem, std::vector<Token> operands,
                    bool hint)
{
    if (!inTextSec)
        err("instruction outside .text");
    Item item;
    item.kind = Item::Inst;
    item.mnemonic = mnem;
    item.operands = std::move(operands);
    item.hint = hint;
    item.addr = textBase + textCursor;
    item.line = lineNo;
    textItems.push_back(std::move(item));
    textCursor += 4;
}

bool
Parser::expandPseudo(const std::string &mnem,
                     const std::vector<std::string> &ops)
{
    // Every pseudo-op checks its operand count before reading any.
    const auto need = [&](size_t n, const char *form) {
        if (ops.size() != n)
            err(strf(mnem, " needs ", form));
    };
    auto tok = [&](size_t i) { return parseOperand(ops[i]); };
    auto regTok = [](RegId r) { return Token{Token::Reg, r, 0, ""}; };
    auto immTok = [](i64 v) { return Token{Token::Imm, 0, v, ""}; };

    if (mnem == "li") {
        need(2, "rd, imm");
        const Token rd = tok(0);
        const Token val = tok(1);
        if (rd.kind != Token::Reg || val.kind != Token::Imm)
            err("li needs rd, literal");
        if (val.imm < -(i64{1} << 31) || val.imm > i64{0xffffffff})
            err(strf("li operand ", val.imm, " does not fit in 32 bits"));
        if (fitsSigned(val.imm, 14)) {
            addInstItem("addi", {rd, regTok(0), immTok(val.imm)});
        } else {
            const u32 uv = static_cast<u32>(val.imm);
            addInstItem("lui", {rd, immTok(uv >> 13)});
            if ((uv & 0x1fff) != 0)
                addInstItem("ori", {rd, rd, immTok(uv & 0x1fff)});
        }
        return true;
    }
    if (mnem == "la") {
        need(2, "rd, symbol");
        const Token rd = tok(0);
        Token sym = tok(1);
        if (rd.kind != Token::Reg || sym.kind != Token::Sym)
            err("la needs rd, symbol");
        // Fixed two-instruction expansion so pass-1 sizing is stable.
        Token hi = sym;
        hi.sym = "%hi:" + sym.sym;
        Token lo = sym;
        lo.sym = "%lo:" + sym.sym;
        addInstItem("lui", {rd, hi});
        addInstItem("ori", {rd, rd, lo});
        return true;
    }
    if (mnem == "mov") {
        need(2, "rd, rs");
        addInstItem("addi", {tok(0), tok(1), immTok(0)});
        return true;
    }
    if (mnem == "j") {
        need(1, "label");
        addInstItem("jal", {regTok(0), tok(0)});
        return true;
    }
    if (mnem == "beqz") {
        need(2, "rs, label");
        addInstItem("beq", {tok(0), regTok(0), tok(1)});
        return true;
    }
    if (mnem == "bnez") {
        need(2, "rs, label");
        addInstItem("bne", {tok(0), regTok(0), tok(1)});
        return true;
    }
    if (mnem == "bgt") {
        need(3, "rs, rt, label");
        addInstItem("blt", {tok(1), tok(0), tok(2)});
        return true;
    }
    if (mnem == "ble") {
        need(3, "rs, rt, label");
        addInstItem("bge", {tok(1), tok(0), tok(2)});
        return true;
    }
    if (mnem == "not") {
        need(2, "rd, rs");
        addInstItem("nor", {tok(0), tok(1), regTok(0)});
        return true;
    }
    if (mnem == "neg") {
        need(2, "rd, rs");
        addInstItem("sub", {tok(0), regTok(0), tok(1)});
        return true;
    }
    return false;
}

void
Parser::handleInst(const std::string &mnem, const std::string &rest)
{
    const auto ops = splitOperands(rest);
    if (expandPseudo(mnem, ops))
        return;
    if (mnemonicMap().count(mnem) == 0)
        err(strf("unknown mnemonic '", mnem, "'"));

    std::vector<Token> toks;
    toks.reserve(ops.size());
    bool hint = true;
    for (const auto &o : ops) {
        if (o == "nohint") {
            hint = false;
            continue;
        }
        toks.push_back(parseOperand(o));
    }
    addInstItem(mnem, std::move(toks), hint);
}

void
Parser::handleDirective(const std::string &dir, const std::string &rest)
{
    // The data segment must end inside the 32-bit address space: a
    // directive that would carry it past 0xffffffff is an error,
    // checked in 64 bits before its bytes are allocated.
    auto checkFits = [&](u64 bytes) {
        if (u64{dataBase} + dataCursor + bytes > (u64{1} << 32))
            err(strf(dir, " of ", bytes, " bytes ends the data segment "
                     "past 0xffffffff"));
    };
    auto addData = [&](std::vector<u8> bytes, std::string word_sym = "") {
        Item item;
        item.kind = Item::Data;
        item.bytes = std::move(bytes);
        item.wordSym = std::move(word_sym);
        item.addr = dataBase + dataCursor;
        item.line = lineNo;
        const u64 size = item.wordSym.empty() ? item.bytes.size() : 4;
        checkFits(size);
        dataCursor += static_cast<Addr>(size);
        dataItems.push_back(std::move(item));
    };

    if (dir == ".text") {
        inTextSec = true;
        return;
    }
    if (dir == ".data") {
        inTextSec = false;
        return;
    }
    if (inTextSec && (dir == ".word" || dir == ".space" || dir == ".byte" ||
                      dir == ".half" || dir == ".align" || dir == ".float"))
        err("data directive inside .text");

    if (dir == ".word" || dir == ".float") {
        for (const auto &o : splitOperands(rest)) {
            bool ok = false;
            if (dir == ".float") {
                // Parse as decimal float literal.
                try {
                    const float f = std::stof(o);
                    u32 v;
                    static_assert(sizeof(v) == sizeof(f));
                    __builtin_memcpy(&v, &f, 4);
                    addData({static_cast<u8>(v), static_cast<u8>(v >> 8),
                             static_cast<u8>(v >> 16),
                             static_cast<u8>(v >> 24)});
                    continue;
                } catch (const std::exception &) {
                    err(strf("bad float literal ", o));
                }
            }
            const i64 value = parseNumber(o, ok);
            if (ok) {
                const u32 v = static_cast<u32>(value);
                addData({static_cast<u8>(v), static_cast<u8>(v >> 8),
                         static_cast<u8>(v >> 16), static_cast<u8>(v >> 24)});
            } else {
                addData({}, o);  // symbol slot, patched in pass 2
            }
        }
        return;
    }
    if (dir == ".half" || dir == ".byte") {
        const unsigned width = (dir == ".half") ? 2 : 1;
        for (const auto &o : splitOperands(rest)) {
            bool ok = false;
            const i64 value = parseNumber(o, ok);
            if (!ok)
                err(strf("bad ", dir, " literal ", o));
            std::vector<u8> b;
            for (unsigned i = 0; i < width; i++)
                b.push_back(static_cast<u8>(value >> (8 * i)));
            addData(std::move(b));
        }
        return;
    }
    if (dir == ".space") {
        bool ok = false;
        const i64 n = parseNumber(rest, ok);
        if (!ok || n < 0)
            err("bad .space size");
        checkFits(static_cast<u64>(n));
        addData(std::vector<u8>(static_cast<size_t>(n), 0));
        return;
    }
    if (dir == ".align") {
        bool ok = false;
        const i64 a = parseNumber(rest, ok);
        if (!ok || a <= 0 || (a & (a - 1)))
            err("bad .align");
        // Pad to the next address that is a multiple of a.
        const u64 mask = static_cast<u64>(a) - 1;
        const u64 at = u64{dataBase} + dataCursor;
        const u64 pad = (static_cast<u64>(a) - (at & mask)) & mask;
        checkFits(pad);
        if (pad)
            addData(std::vector<u8>(static_cast<size_t>(pad), 0));
        return;
    }
    err(strf("unknown directive '", dir, "'"));
}

void
Parser::handleLine(std::string line)
{
    // Strip comments.
    for (const char marker : {'#', ';'}) {
        const auto pos = line.find(marker);
        if (pos != std::string::npos)
            line.erase(pos);
    }

    // Peel off leading labels.
    for (;;) {
        size_t i = 0;
        while (i < line.size() &&
               std::isspace(static_cast<unsigned char>(line[i])))
            i++;
        size_t j = i;
        while (j < line.size() &&
               (std::isalnum(static_cast<unsigned char>(line[j])) ||
                line[j] == '_' || line[j] == '.'))
            j++;
        if (j < line.size() && line[j] == ':' && j > i && line[i] != '.') {
            const std::string label = line.substr(i, j - i);
            if (symbols.count(label))
                err(strf("duplicate label '", label, "'"));
            symbols[label] = inTextSec ? textBase + textCursor
                                       : dataBase + dataCursor;
            line.erase(0, j + 1);
            continue;
        }
        break;
    }

    // Tokenize mnemonic/directive.
    size_t i = 0;
    while (i < line.size() &&
           std::isspace(static_cast<unsigned char>(line[i])))
        i++;
    if (i >= line.size())
        return;
    size_t j = i;
    while (j < line.size() &&
           !std::isspace(static_cast<unsigned char>(line[j])))
        j++;
    const std::string head = line.substr(i, j - i);
    const std::string rest = (j < line.size()) ? line.substr(j + 1) : "";

    if (head[0] == '.')
        handleDirective(head, rest);
    else
        handleInst(head, rest);
}

Addr
Parser::resolve(const Token &tok, const std::map<std::string, Addr> &syms,
                int line) const
{
    std::string name = tok.sym;
    bool hi = false;
    bool lo = false;
    if (name.rfind("%hi:", 0) == 0) {
        hi = true;
        name = name.substr(4);
    } else if (name.rfind("%lo:", 0) == 0) {
        lo = true;
        name = name.substr(4);
    }
    const auto it = syms.find(name);
    if (it == syms.end())
        fatal(strf("asm line ", line, ": undefined symbol '", name, "'"));
    if (hi)
        return it->second >> 13;
    if (lo)
        return it->second & 0x1fff;
    return it->second;
}

Instruction
Parser::encodeItem(const Item &item, const std::map<std::string, Addr> &syms)
{
    const Op op = mnemonicMap().at(item.mnemonic);
    const OpTraits &tr = opTraits(op);
    Instruction inst;
    inst.op = op;
    inst.hint = item.hint;
    lineNo = item.line;

    auto immOf = [&](const Token &t) -> i64 {
        if (t.kind == Token::Imm)
            return t.imm;
        if (t.kind == Token::Sym || t.kind == Token::MemRef) {
            if (t.kind == Token::MemRef && t.sym.empty())
                return t.imm;
            return static_cast<i64>(resolve(t, syms, item.line));
        }
        err("expected immediate or symbol operand");
    };
    auto regOf = [&](const Token &t) -> RegId {
        if (t.kind != Token::Reg)
            err(strf("expected register operand in ", item.mnemonic));
        return t.reg;
    };
    auto wordOffset = [&](const Token &t) -> i64 {
        const i64 target = immOf(t);
        const i64 delta = target - static_cast<i64>(item.addr);
        if (delta % 4 != 0)
            err("misaligned branch target");
        return delta / 4;
    };
    // Every field is range-checked as an i64 before it narrows, so an
    // operand that does not fit is an error naming the line, never a
    // silent wrap or an encoder assertion.
    auto field = [&](i64 v, i64 lo, i64 hi) -> i32 {
        if (v < lo || v > hi) {
            err(strf(item.mnemonic, " operand ", v, " out of range [", lo,
                     ", ", hi, "]"));
        }
        return static_cast<i32>(v);
    };
    auto simm = [&](i64 v, unsigned bits) {
        return field(v, -(i64{1} << (bits - 1)), (i64{1} << (bits - 1)) - 1);
    };
    const auto &ops = item.operands;
    auto need = [&](size_t n) {
        if (ops.size() != n)
            err(strf(item.mnemonic, " expects ", n, " operands, got ",
                     ops.size()));
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
        if (ops[2].kind != Token::AmoRef)
            err("amo needs (rN) address operand");
        inst.rs1 = ops[2].reg;
        break;
      case Format::I:
        if (tr.fuClass == FuClass::Load) {
            need(2);
            inst.rd = regOf(ops[0]);
            if (ops[1].kind != Token::MemRef)
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
        if (ops[1].kind != Token::MemRef)
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
    int n = 0;
    std::string line;
    for (size_t i = 0; i <= src.size(); i++) {
        if (i == src.size() || src[i] == '\n') {
            lineNo = ++n;
            handleLine(line);
            line.clear();
        } else {
            line += src[i];
        }
    }

    Program prog;
    prog.textBase = textBase;
    prog.entry = textBase;
    prog.symbols = symbols;

    for (const auto &item : textItems) {
        const Instruction inst = encodeItem(item, symbols);
        prog.text.push_back(inst.encode());
    }

    Program::DataChunk chunk;
    chunk.base = dataBase;
    for (const auto &item : dataItems) {
        if (!item.wordSym.empty()) {
            Token t{Token::Sym, 0, 0, item.wordSym};
            const u32 v = resolve(t, symbols, item.line);
            for (unsigned b = 0; b < 4; b++)
                chunk.bytes.push_back(static_cast<u8>(v >> (8 * b)));
        } else {
            chunk.bytes.insert(chunk.bytes.end(), item.bytes.begin(),
                               item.bytes.end());
        }
    }
    if (!chunk.bytes.empty())
        prog.data.push_back(std::move(chunk));
    return prog;
}

} // namespace

Program
assemble(const std::string &source, Addr textBase, Addr dataBase)
{
    Parser parser(source, textBase, dataBase);
    return parser.run();
}

} // namespace xloops
