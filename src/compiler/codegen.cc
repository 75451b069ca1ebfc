#include "compiler/codegen.h"

#include <sstream>

#include "asm/assembler.h"
#include "common/log.h"

namespace xloops {

namespace {

/** True for expression-temporary registers (r26..r31). */
bool
isTempReg(const std::string &reg)
{
    if (reg.size() < 2 || reg[0] != 'r')
        return false;
    const int n = std::atoi(reg.c_str() + 1);
    return n >= 26;
}

/** Structural rendering used for pointer-MIV keys. */
std::string
render(const ExprPtr &e)
{
    if (!e)
        return "";
    switch (e->kind) {
      case Expr::Kind::Const:
        return std::to_string(e->cval);
      case Expr::Kind::Var:
        return e->var;
      case Expr::Kind::Load:
        return e->array + "[" + render(e->index) + "]";
      case Expr::Kind::Bin:
        return "(" + render(e->lhs) + "#" +
               std::to_string(static_cast<int>(e->op)) + "#" +
               render(e->rhs) + ")";
    }
    return "?";
}

} // namespace

void
CodeGen::declareArray(const std::string &name, unsigned words,
                      const std::vector<i32> &init)
{
    if (arrays.count(name))
        fatal(strf("array '", name, "' declared twice"));
    if (init.size() > words)
        fatal(strf("array '", name, "' init longer than the array"));
    arrays[name] = ArrayDecl{words, init};
}

void
CodeGen::emit(const std::string &line)
{
    lines.push_back("  " + line);
}

std::string
CodeGen::newLabel(const std::string &stem)
{
    return stem + std::to_string(labelCounter++);
}

std::string
CodeGen::scalarReg(const std::string &name)
{
    auto it = scalarRegs.find(name);
    if (it != scalarRegs.end())
        return it->second;
    if (nextScalar > 25)
        fatal("xcc ran out of scalar registers");
    const std::string reg = "r" + std::to_string(nextScalar++);
    scalarRegs[name] = reg;
    return reg;
}

std::string
CodeGen::arrayBaseReg(const std::string &name)
{
    if (!arrays.count(name))
        fatal(strf("use of undeclared array '", name, "'"));
    auto it = baseRegs.find(name);
    if (it != baseRegs.end())
        return it->second;
    const std::string reg = scalarReg("&" + name);
    baseRegs[name] = reg;
    // Bases are materialized lazily at the point of first use; for
    // simplicity (and since kernels use arrays from the start) we
    // hoist all la instructions to the prologue in compile().
    return reg;
}

std::string
CodeGen::tempReg()
{
    if (tempDepth >= 6)
        fatal("xcc expression too deep (out of temp registers)");
    return "r" + std::to_string(26 + tempDepth++);
}

void
CodeGen::releaseTemp()
{
    XL_ASSERT(tempDepth > 0, "temp underflow");
    tempDepth--;
}

std::string
CodeGen::pointerKey(const std::string &array, const AffineForm &form) const
{
    return array + "@" + std::to_string(form.coeff) + "@" +
           render(form.invariant);
}

std::string
CodeGen::addressOf(const std::string &array, const ExprPtr &index)
{
    // Pointer MIV: reuse a strength-reduced pointer when available.
    if (inXloopBody && lsr) {
        const auto form = affineIn(index, activeIv);
        if (form && form->coeff != 0) {
            const std::string key = pointerKey(array, *form);
            for (const auto &miv : activeMivs)
                if (miv.key == key)
                    return miv.reg;
        }
    }
    // Generic addressing: base + 4*index. When the index landed in a
    // temp, shift it in place so the net temp allocation stays one.
    const std::string idx = evalExpr(index);
    const std::string t = isTempReg(idx) ? idx : tempReg();
    emit("slli " + t + ", " + idx + ", 2");
    emit("add " + t + ", " + arrayBaseReg(array) + ", " + t);
    return t;  // caller releases iff isTempReg(t)
}

std::string
CodeGen::evalExpr(const ExprPtr &expr)
{
    switch (expr->kind) {
      case Expr::Kind::Var:
        return scalarReg(expr->var);
      default: {
        const std::string t = tempReg();
        tempDepth--;          // evalInto re-allocates
        evalInto(expr, t);
        tempDepth++;
        return t;
      }
    }
}

void
CodeGen::evalInto(const ExprPtr &expr, const std::string &reg)
{
    switch (expr->kind) {
      case Expr::Kind::Const:
        emit("li " + reg + ", " + std::to_string(expr->cval));
        return;
      case Expr::Kind::Var:
        if (scalarReg(expr->var) != reg)
            emit("mov " + reg + ", " + scalarReg(expr->var));
        return;
      case Expr::Kind::Load: {
        const std::string addr = addressOf(expr->array, expr->index);
        emit("lw " + reg + ", 0(" + addr + ")");
        if (isTempReg(addr))
            releaseTemp();
        return;
      }
      case Expr::Kind::Bin:
        break;
    }

    // Binary operator.
    const ExprPtr &l = expr->lhs;
    const ExprPtr &r = expr->rhs;
    const bool rConst = r->kind == Expr::Kind::Const &&
                        fitsSigned(r->cval, 14);

    const std::string a = evalExpr(l);
    const bool aTemp = isTempReg(a);
    std::string b;
    bool bTemp = false;

    auto evalB = [&]() {
        b = evalExpr(r);
        bTemp = isTempReg(b);
    };
    auto finish = [&]() {
        if (bTemp)
            releaseTemp();
        if (aTemp)
            releaseTemp();
    };
    auto rr = [&](const std::string &mnem) {
        evalB();
        emit(mnem + " " + reg + ", " + a + ", " + b);
        finish();
    };
    auto riOrRr = [&](const std::string &imnem, const std::string &mnem) {
        if (rConst) {
            emit(imnem + " " + reg + ", " + a + ", " +
                 std::to_string(r->cval));
            if (aTemp)
                releaseTemp();
        } else {
            rr(mnem);
        }
    };

    switch (expr->op) {
      case BinOp::Add: riOrRr("addi", "add"); return;
      case BinOp::Sub:
        if (rConst) {
            emit("addi " + reg + ", " + a + ", " +
                 std::to_string(-r->cval));
            if (aTemp)
                releaseTemp();
        } else {
            rr("sub");
        }
        return;
      case BinOp::Mul: rr("mul"); return;
      case BinOp::Div: rr("div"); return;
      case BinOp::Rem: rr("rem"); return;
      case BinOp::And: riOrRr("andi", "and"); return;
      case BinOp::Or: riOrRr("ori", "or"); return;
      case BinOp::Xor: riOrRr("xori", "xor"); return;
      case BinOp::Shl: riOrRr("slli", "sll"); return;
      case BinOp::Shr: riOrRr("srli", "srl"); return;
      case BinOp::Lt: riOrRr("slti", "slt"); return;
      case BinOp::Ge:
        riOrRr("slti", "slt");
        emit("xori " + reg + ", " + reg + ", 1");
        return;
      case BinOp::Gt:
        evalB();
        emit("slt " + reg + ", " + b + ", " + a);
        finish();
        return;
      case BinOp::Le:
        evalB();
        emit("slt " + reg + ", " + b + ", " + a);
        emit("xori " + reg + ", " + reg + ", 1");
        finish();
        return;
      case BinOp::Eq:
        rr("xor");
        emit("sltiu " + reg + ", " + reg + ", 1");
        return;
      case BinOp::Ne:
        rr("xor");
        emit("sltu " + reg + ", zero, " + reg);
        return;
      case BinOp::Min:
      case BinOp::Max: {
        evalB();
        const std::string done = newLabel("mm");
        if (reg != a)
            emit("mov " + reg + ", " + a);
        if (expr->op == BinOp::Min)
            emit("ble " + a + ", " + b + ", " + done);
        else
            emit("bge " + a + ", " + b + ", " + done);
        emit("mov " + reg + ", " + b);
        lines.push_back(done + ":");
        finish();
        return;
      }
    }
    panic("unhandled binary operator");
}

/**
 * Atomic RMW lowering: inside an xloop.ua body, a store of the form
 *   a[idx] = a[idx] op e     (op in {+, &, |, ^, min, max})
 * lowers to one amo instruction, so unordered lanes update the cell
 * atomically — the lw / op / sw sequence a plain store would emit
 * loses updates when two lanes hit the same cell. Returns false when
 * the store is not such a read-modify-write.
 */
bool
CodeGen::genAmoStore(const Stmt &stmt)
{
    if (!stmt.value || stmt.value->kind != Expr::Kind::Bin)
        return false;
    const char *mnemonic = nullptr;
    switch (stmt.value->op) {
      case BinOp::Add: mnemonic = "amoadd"; break;
      case BinOp::And: mnemonic = "amoand"; break;
      case BinOp::Or:  mnemonic = "amoor"; break;
      case BinOp::Xor: mnemonic = "amoxor"; break;
      case BinOp::Min: mnemonic = "amomin"; break;
      case BinOp::Max: mnemonic = "amomax"; break;
      default: return false;
    }
    auto readsCell = [&](const ExprPtr &e) {
        return e->kind == Expr::Kind::Load && e->array == stmt.array &&
               exprEquals(e->index, stmt.index);
    };
    ExprPtr operand;
    if (readsCell(stmt.value->lhs))
        operand = stmt.value->rhs;
    else if (readsCell(stmt.value->rhs))
        operand = stmt.value->lhs;
    else
        return false;
    // The other operand must not read the updated array at all — its
    // value would depend on unordered neighbor updates.
    std::vector<std::pair<std::string, ExprPtr>> loads;
    operand->collectLoads(loads);
    for (const auto &[array, index] : loads)
        if (array == stmt.array)
            return false;

    const std::string val = evalExpr(operand);
    const bool vTemp = isTempReg(val);
    const std::string addr = addressOf(stmt.array, stmt.index);
    const bool aTemp = isTempReg(addr);
    const std::string old = tempReg();
    emit(std::string(mnemonic) + " " + old + ", " + val + ", (" +
         addr + ")");
    releaseTemp();
    if (aTemp)
        releaseTemp();
    if (vTemp)
        releaseTemp();
    return true;
}

void
CodeGen::genStmt(const Stmt &stmt)
{
    switch (stmt.kind) {
      case Stmt::Kind::AssignScalar:
        evalInto(stmt.value, scalarReg(stmt.name));
        return;
      case Stmt::Kind::StoreArray: {
        if (inAtomicBody && genAmoStore(stmt))
            return;
        const std::string value = evalExpr(stmt.value);
        const bool vTemp = isTempReg(value);
        const std::string addr = addressOf(stmt.array, stmt.index);
        emit("sw " + value + ", 0(" + addr + ")");
        if (isTempReg(addr))
            releaseTemp();
        if (vTemp)
            releaseTemp();
        return;
      }
      case Stmt::Kind::If: {
        const std::string cond = evalExpr(stmt.cond);
        const bool cTemp = isTempReg(cond);
        const std::string elseL = newLabel("else");
        const std::string endL = newLabel("endif");
        emit("beqz " + cond + ", " +
             (stmt.elseBody.empty() ? endL : elseL));
        if (cTemp)
            releaseTemp();
        genStmts(stmt.thenBody);
        if (!stmt.elseBody.empty()) {
            emit("j " + endL);
            lines.push_back(elseL + ":");
            genStmts(stmt.elseBody);
        }
        lines.push_back(endL + ":");
        return;
      }
      case Stmt::Kind::Nested:
        genLoop(stmt.nested.front());
        return;
      case Stmt::Kind::ExitWhen: {
        if (activeExitFlag.empty())
            fatal("exitWhen outside a data-dependent-exit loop");
        const std::string cond = evalExpr(stmt.cond);
        // Any nonzero value raises the flag.
        emit("or " + activeExitFlag + ", " + activeExitFlag + ", " +
             cond);
        if (isTempReg(cond))
            releaseTemp();
        return;
      }
    }
}

void
CodeGen::genStmts(const std::vector<Stmt> &body)
{
    for (const Stmt &s : body)
        genStmt(s);
}

void
CodeGen::genLoop(const Loop &loop)
{
    const LoopSelection sel = selectPattern(loop);

    // Induction variable and bound registers.
    const std::string ivReg = scalarReg(loop.iv);
    evalInto(loop.lower, ivReg);
    std::string boundReg;
    if (loop.upper->kind == Expr::Kind::Var) {
        boundReg = scalarReg(loop.upper->var);
    } else {
        boundReg = scalarReg("__bound" + std::to_string(labelCounter));
        evalInto(loop.upper, boundReg);
    }

    const std::string skipL = newLabel("skip");
    const std::string bodyL = newLabel("body");
    emit("bge " + ivReg + ", " + boundReg + ", " + skipL);

    // Data-dependent exit: a dedicated flag register, cleared before
    // entry, raised by exitWhen statements (and by the implicit
    // upper-bound check emitted at the bottom of the body).
    std::string exitFlag;
    if (sel.dataDepExit) {
        exitFlag = scalarReg("__exit" + std::to_string(labelCounter));
        emit("li " + exitFlag + ", 0");
    }

    // Save the enclosing MIV context (nested loops).
    const auto savedMivs = activeMivs;
    const auto savedIv = activeIv;
    const bool savedIn = inXloopBody;
    const bool savedAtomic = inAtomicBody;
    const auto savedExit = activeExitFlag;
    activeExitFlag = exitFlag;

    std::vector<PointerMiv> myMivs;
    if (!sel.serial && lsr) {
        // Loop strength reduction: create a pointer MIV for every
        // affine array access whose invariant part is loop-invariant.
        const RwSets rw = scalarRw(loop.body);
        std::vector<std::pair<std::string, ExprPtr>> accesses;
        collectArrayWrites(loop.body, accesses);
        collectArrayReads(loop.body, accesses);
        for (const auto &[array, index] : accesses) {
            const auto form = affineIn(index, loop.iv);
            if (!form || form->coeff == 0)
                continue;
            std::set<std::string> invVars;
            form->invariant->collectVars(invVars);
            bool invariantOk = true;
            for (const auto &v : invVars)
                if (rw.written.count(v) || v == loop.iv)
                    invariantOk = false;
            if (!invariantOk)
                continue;
            const std::string key = pointerKey(array, *form);
            bool seen = false;
            for (const auto &m : myMivs)
                if (m.key == key)
                    seen = true;
            for (const auto &m : activeMivs)
                if (m.key == key)
                    seen = true;  // outer loop already reduced it
            if (seen)
                continue;
            // p = base + 4*subscript evaluated at iv = lower.
            const std::string preg =
                scalarReg("__ptr" + std::to_string(labelCounter) + key);
            const std::string idx = evalExpr(index);
            emit("slli " + preg + ", " + idx + ", 2");
            if (isTempReg(idx))
                releaseTemp();
            emit("add " + preg + ", " + arrayBaseReg(array) + ", " +
                 preg);
            myMivs.push_back({key, preg, 4 * form->coeff});
        }
    }

    if (!sel.serial) {
        activeIv = loop.iv;
        inXloopBody = true;
        inAtomicBody = sel.pattern == LoopPattern::UA;
        for (const auto &m : myMivs)
            activeMivs.push_back(m);
    }

    lines.push_back(bodyL + ":");
    genStmts(loop.body);

    if (sel.dataDepExit) {
        // Implicit upper-bound exit: flag |= (iv + 1 >= upper).
        const std::string t = tempReg();
        emit("addi " + t + ", " + ivReg + ", 1");
        emit("slt " + t + ", " + t + ", " + boundReg);
        emit("xori " + t + ", " + t + ", 1");
        emit("or " + exitFlag + ", " + exitFlag + ", " + t);
        releaseTemp();
    }

    if (!sel.serial) {
        for (const auto &m : myMivs)
            emit("addiu.xi " + m.reg + ", " + std::to_string(m.strideBytes));
        std::string xl = std::string(opTraits(sel.opcode()).mnemonic) +
                         " " + ivReg + ", " +
                         (sel.dataDepExit ? exitFlag : boundReg) + ", " +
                         bodyL;
        if (!loop.hintSpecialize)
            xl += ", nohint";
        emit(xl);
    } else if (sel.dataDepExit) {
        emit("addi " + ivReg + ", " + ivReg + ", 1");
        emit("beqz " + exitFlag + ", " + bodyL);
    } else {
        emit("addi " + ivReg + ", " + ivReg + ", 1");
        emit("blt " + ivReg + ", " + boundReg + ", " + bodyL);
    }
    lines.push_back(skipL + ":");

    activeMivs = savedMivs;
    activeIv = savedIv;
    inXloopBody = savedIn;
    inAtomicBody = savedAtomic;
    activeExitFlag = savedExit;
}

std::string
CodeGen::compile(const std::vector<Stmt> &topLevel)
{
    lines.clear();
    scalarRegs.clear();
    baseRegs.clear();
    nextScalar = 8;
    tempDepth = 0;
    labelCounter = 0;
    activeMivs.clear();
    inXloopBody = false;

    // Body first (so we know which array bases are used)...
    genStmts(topLevel);
    emit("halt");

    // ...then the prologue of la instructions.
    std::vector<std::string> prologue;
    for (const auto &[array, reg] : baseRegs)
        prologue.push_back("  la " + reg + ", " + array);

    std::ostringstream out;
    out << "  .text\n_start:\n";
    for (const auto &line : prologue)
        out << line << "\n";
    for (const auto &line : lines)
        out << line << "\n";
    out << "  .data\n";
    for (const auto &[name, decl] : arrays) {
        out << name << ":";
        if (!decl.init.empty()) {
            out << " .word ";
            for (size_t i = 0; i < decl.init.size(); i++)
                out << (i ? ", " : "") << decl.init[i];
            out << "\n";
            if (decl.words > decl.init.size())
                out << "  .space "
                    << 4 * (u64{decl.words} - decl.init.size()) << "\n";
        } else {
            out << " .space " << 4 * u64{decl.words} << "\n";
        }
    }
    return out.str();
}

Program
CodeGen::compileToProgram(const std::vector<Stmt> &topLevel)
{
    return assemble(compile(topLevel));
}

} // namespace xloops
