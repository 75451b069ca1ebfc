#include "frontend/parser.h"

#include <set>

#include "asm/program.h"

namespace xloops {

const ArrayDeclInfo *
FrontendModule::findArray(const std::string &name) const
{
    for (const ArrayDeclInfo &a : arrays)
        if (a.name == name)
            return &a;
    return nullptr;
}

namespace {

class Parser
{
  public:
    explicit Parser(std::vector<Token> toks) : tokens(std::move(toks)) {}

    FrontendModule
    run()
    {
        while (!atEnd()) {
            if (peek().is(Token::Kind::Ident, "array"))
                parseArrayDecl();
            else
                mod.topLevel.push_back(parseStmt());
        }
        checkScalarReads();
        return std::move(mod);
    }

  private:
    // --- token plumbing -------------------------------------------

    const Token &peek(size_t ahead = 0) const
    {
        const size_t idx = pos + ahead;
        return tokens[idx < tokens.size() ? idx : tokens.size() - 1];
    }

    bool atEnd() const { return peek().kind == Token::Kind::End; }

    const Token &take() { return tokens[pos++]; }

    [[noreturn]] void
    err(const std::string &msg) const
    {
        const Token &t = peek();
        std::string got;
        switch (t.kind) {
          case Token::Kind::End: got = "end of input"; break;
          case Token::Kind::Number: got = "'" + t.text + "'"; break;
          default: got = "'" + t.text + "'"; break;
        }
        throw FrontendError(msg + " (got " + got + ")", t.line, t.col);
    }

    bool
    eat(std::string_view punct)
    {
        if (peek().is(Token::Kind::Punct, punct)) {
            take();
            return true;
        }
        return false;
    }

    void
    expect(std::string_view punct)
    {
        if (!eat(punct))
            err(strf("expected '", punct, "'"));
    }

    bool
    eatIdent(std::string_view word)
    {
        if (peek().is(Token::Kind::Ident, word)) {
            take();
            return true;
        }
        return false;
    }

    std::string
    expectIdent(std::string_view what)
    {
        if (peek().kind != Token::Kind::Ident)
            err(strf("expected ", what));
        return take().text;
    }

    i32
    expectNumber()
    {
        const bool neg = eat("-");
        if (peek().kind != Token::Kind::Number)
            err("expected integer literal");
        const i64 v = take().value;
        return static_cast<i32>(neg ? -v : v);
    }

    // --- declarations ---------------------------------------------

    void
    parseArrayDecl()
    {
        const Token &kw = peek();
        take();  // "array"
        ArrayDeclInfo decl;
        decl.name = expectIdent("array name");
        if (mod.findArray(decl.name)) {
            throw FrontendError("duplicate array '" + decl.name + "'",
                                kw.line, kw.col);
        }
        expect("[");
        const i32 words = expectNumber();
        if (words <= 0)
            throw FrontendError("array '" + decl.name +
                                    "' must have positive size",
                                kw.line, kw.col);
        decl.words = static_cast<unsigned>(words);
        // Arrays sit back to back from dataBaseDefault; the last must
        // end inside the 32-bit address space.
        u64 end = u64{dataBaseDefault} + 4 * u64{decl.words};
        for (const ArrayDeclInfo &a : mod.arrays)
            end += 4 * u64{a.words};
        if (end > u64{1} << 32)
            throw FrontendError(strf("array '", decl.name, "' of ", words,
                                     " words ends the data segment past "
                                     "0xffffffff"),
                                kw.line, kw.col);
        expect("]");
        if (eat("=")) {
            expect("{");
            if (!peek().is(Token::Kind::Punct, "}")) {
                decl.init.push_back(expectNumber());
                while (eat(","))
                    decl.init.push_back(expectNumber());
            }
            expect("}");
            if (decl.init.size() > decl.words) {
                throw FrontendError(
                    strf("array '", decl.name, "' initializer has ",
                         decl.init.size(), " words but the array holds ",
                         decl.words),
                    kw.line, kw.col);
            }
        }
        expect(";");
        mod.arrays.push_back(std::move(decl));
    }

    // --- statements -----------------------------------------------

    Stmt
    parseStmt()
    {
        const Token &t = peek();
        if (t.kind == Token::Kind::Punct && t.text == "#")
            return parsePragmaLoop();
        if (t.kind != Token::Kind::Ident)
            err("expected statement");
        if (t.text == "for")
            return parseFor(Pragma::None, true);
        if (t.text == "if")
            return parseIf();
        if (t.text == "break")
            return parseBreakWhen();
        if (t.text == "let") {
            take();
            const std::string name = expectIdent("scalar name");
            assigned.insert(name);
            expect("=");
            ExprPtr value = parseExpr();
            expect(";");
            return assign(name, std::move(value));
        }

        // IDENT "=" expr ";"  |  IDENT "[" expr "]" "=" expr ";"
        const std::string name = take().text;
        if (eat("[")) {
            requireArray(name, t);
            ExprPtr index = parseExpr();
            expect("]");
            expect("=");
            ExprPtr value = parseExpr();
            expect(";");
            return store(name, std::move(index), std::move(value));
        }
        assigned.insert(name);
        expect("=");
        ExprPtr value = parseExpr();
        expect(";");
        return assign(name, std::move(value));
    }

    Stmt
    parsePragmaLoop()
    {
        const Token &hash = peek();
        take();  // "#"
        if (!eatIdent("pragma") || !eatIdent("xloops"))
            throw FrontendError("expected '#pragma xloops <kind>'",
                                hash.line, hash.col);
        Pragma pragma;
        const std::string kind = expectIdent("pragma kind");
        if (kind == "unordered")
            pragma = Pragma::Unordered;
        else if (kind == "ordered")
            pragma = Pragma::Ordered;
        else if (kind == "atomic")
            pragma = Pragma::Atomic;
        else if (kind == "auto")
            pragma = Pragma::Auto;
        else
            throw FrontendError(
                "unknown pragma kind '" + kind +
                    "' (want unordered|ordered|atomic|auto)",
                hash.line, hash.col);
        const bool hint = !eatIdent("nohint");
        if (!peek().is(Token::Kind::Ident, "for"))
            err("expected 'for' after #pragma xloops");
        return parseFor(pragma, hint);
    }

    Stmt
    parseFor(Pragma pragma, bool hint)
    {
        const Token &kw = peek();
        take();  // "for"
        expect("(");
        Loop loop;
        loop.pragma = pragma;
        loop.hintSpecialize = hint;
        loop.iv = expectIdent("induction variable");
        assigned.insert(loop.iv);
        expect("=");
        loop.lower = parseExpr();
        expect(";");
        const std::string cmpIv = expectIdent("induction variable");
        if (cmpIv != loop.iv)
            throw FrontendError("loop condition must test '" + loop.iv +
                                    "', not '" + cmpIv + "'",
                                kw.line, kw.col);
        expect("<");
        loop.upper = parseExpr();
        expect(";");
        const std::string stepIv = expectIdent("induction variable");
        if (stepIv != loop.iv)
            throw FrontendError("loop step must update '" + loop.iv +
                                    "', not '" + stepIv + "'",
                                kw.line, kw.col);
        if (!eat("++")) {
            // the long form: iv = iv + 1
            expect("=");
            if (expectIdent("induction variable") != loop.iv)
                throw FrontendError("loop step must update '" + loop.iv +
                                        "' by exactly one",
                                    kw.line, kw.col);
            expect("+");
            if (peek().kind != Token::Kind::Number || peek().value != 1)
                err("loop step must be +1");
            take();
        }
        expect(")");
        loop.body = parseBlock();
        return nested(std::move(loop));
    }

    Stmt
    parseIf()
    {
        take();  // "if"
        expect("(");
        ExprPtr cond = parseExpr();
        expect(")");
        std::vector<Stmt> thenBody = parseBlock();
        std::vector<Stmt> elseBody;
        if (eatIdent("else"))
            elseBody = parseBlock();
        return ifThen(std::move(cond), std::move(thenBody),
                      std::move(elseBody));
    }

    Stmt
    parseBreakWhen()
    {
        const Token &kw = peek();
        take();  // "break"
        if (!eatIdent("when"))
            throw FrontendError("expected 'when' after 'break'",
                                kw.line, kw.col);
        expect("(");
        ExprPtr cond = parseExpr();
        expect(")");
        expect(";");
        return exitWhen(std::move(cond));
    }

    std::vector<Stmt>
    parseBlock()
    {
        expect("{");
        std::vector<Stmt> body;
        while (!peek().is(Token::Kind::Punct, "}")) {
            if (atEnd())
                err("unterminated block; expected '}'");
            body.push_back(parseStmt());
        }
        take();  // "}"
        return body;
    }

    // --- expressions (C precedence, lowest binds last) ------------

    ExprPtr parseExpr() { return parseLogicalOr(); }

    ExprPtr
    parseLogicalOr()
    {
        ExprPtr e = parseLogicalAnd();
        while (eat("||"))
            e = bin(BinOp::Or, e, parseLogicalAnd());
        return e;
    }

    ExprPtr
    parseLogicalAnd()
    {
        ExprPtr e = parseBitOr();
        while (eat("&&"))
            e = bin(BinOp::And, e, parseBitOr());
        return e;
    }

    ExprPtr
    parseBitOr()
    {
        ExprPtr e = parseBitXor();
        while (eat("|"))
            e = bin(BinOp::Or, e, parseBitXor());
        return e;
    }

    ExprPtr
    parseBitXor()
    {
        ExprPtr e = parseBitAnd();
        while (eat("^"))
            e = bin(BinOp::Xor, e, parseBitAnd());
        return e;
    }

    ExprPtr
    parseBitAnd()
    {
        ExprPtr e = parseEquality();
        while (eat("&"))
            e = bin(BinOp::And, e, parseEquality());
        return e;
    }

    ExprPtr
    parseEquality()
    {
        ExprPtr e = parseRelational();
        for (;;) {
            if (eat("=="))
                e = bin(BinOp::Eq, e, parseRelational());
            else if (eat("!="))
                e = bin(BinOp::Ne, e, parseRelational());
            else
                return e;
        }
    }

    ExprPtr
    parseRelational()
    {
        ExprPtr e = parseShift();
        for (;;) {
            if (eat("<="))
                e = bin(BinOp::Le, e, parseShift());
            else if (eat(">="))
                e = bin(BinOp::Ge, e, parseShift());
            else if (eat("<"))
                e = bin(BinOp::Lt, e, parseShift());
            else if (eat(">"))
                e = bin(BinOp::Gt, e, parseShift());
            else
                return e;
        }
    }

    ExprPtr
    parseShift()
    {
        ExprPtr e = parseAdditive();
        for (;;) {
            if (eat("<<"))
                e = bin(BinOp::Shl, e, parseAdditive());
            else if (eat(">>"))
                e = bin(BinOp::Shr, e, parseAdditive());
            else
                return e;
        }
    }

    ExprPtr
    parseAdditive()
    {
        ExprPtr e = parseMultiplicative();
        for (;;) {
            if (eat("+"))
                e = add(e, parseMultiplicative());
            else if (eat("-"))
                e = sub(e, parseMultiplicative());
            else
                return e;
        }
    }

    ExprPtr
    parseMultiplicative()
    {
        ExprPtr e = parseUnary();
        for (;;) {
            if (eat("*"))
                e = mul(e, parseUnary());
            else if (eat("/"))
                e = bin(BinOp::Div, e, parseUnary());
            else if (eat("%"))
                e = bin(BinOp::Rem, e, parseUnary());
            else
                return e;
        }
    }

    ExprPtr
    parseUnary()
    {
        if (eat("-")) {
            if (peek().kind == Token::Kind::Number) {
                const Token &t = take();
                return cst(static_cast<i32>(-t.value));
            }
            return sub(cst(0), parseUnary());
        }
        if (eat("!"))
            return bin(BinOp::Eq, parseUnary(), cst(0));
        return parsePrimary();
    }

    ExprPtr
    parsePrimary()
    {
        const Token &t = peek();
        if (t.kind == Token::Kind::Number) {
            take();
            return cst(static_cast<i32>(t.value));
        }
        if (eat("(")) {
            ExprPtr e = parseExpr();
            expect(")");
            return e;
        }
        if (t.kind != Token::Kind::Ident)
            err("expected expression");
        if ((t.text == "min" || t.text == "max") &&
            peek(1).is(Token::Kind::Punct, "(")) {
            const BinOp op = t.text == "min" ? BinOp::Min : BinOp::Max;
            take();
            take();  // "("
            ExprPtr lhs = parseExpr();
            expect(",");
            ExprPtr rhs = parseExpr();
            expect(")");
            return bin(op, std::move(lhs), std::move(rhs));
        }
        const std::string name = take().text;
        if (eat("[")) {
            requireArray(name, t);
            ExprPtr index = parseExpr();
            expect("]");
            return ld(name, std::move(index));
        }
        scalarReads.push_back(&t);
        return var(name);
    }

    void
    requireArray(const std::string &name, const Token &at) const
    {
        if (!mod.findArray(name)) {
            throw FrontendError("undeclared array '" + name + "'",
                                at.line, at.col);
        }
    }

    /** Every scalar read must name a scalar that something in the
     *  module assigns (`=`, `let` or a loop header), never an array:
     *  the code generator would otherwise read an unset register or
     *  an array's base address as a value. */
    void
    checkScalarReads() const
    {
        for (const Token *t : scalarReads) {
            if (mod.findArray(t->text)) {
                throw FrontendError("array '" + t->text +
                                        "' used as a scalar",
                                    t->line, t->col);
            }
            if (!assigned.count(t->text)) {
                throw FrontendError("scalar '" + t->text +
                                        "' is never assigned",
                                    t->line, t->col);
            }
        }
    }

    std::vector<Token> tokens;
    size_t pos = 0;
    FrontendModule mod;
    std::set<std::string> assigned;          ///< scalars written anywhere
    std::vector<const Token *> scalarReads;  ///< in source order
};

} // namespace

FrontendModule
parseModule(const std::string &source)
{
    return Parser(lex(source)).run();
}

} // namespace xloops
