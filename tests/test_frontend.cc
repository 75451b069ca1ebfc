// Frontend tests: lexing, parsing (including source-located errors),
// structural render round-trips, the pattern-selection oracle over
// hand-written loop-nest sources, the speculative-DOACROSS and
// fission paths, and end-to-end compile-and-run equivalence between
// traditional and specialized execution.

#include <gtest/gtest.h>

#include "common/log.h"
#include "frontend/frontend.h"
#include "frontend/render.h"
#include "fuzz/harness.h"
#include "inputs.h"
#include "system/config.h"
#include "system/system.h"

namespace xloops {
namespace {

// --- lexer ---------------------------------------------------------------

TEST(Lexer, TokensAndComments)
{
    const auto toks = lex("for (i = 0; i < 10) // trailing\n  a[i]");
    ASSERT_GE(toks.size(), 12u);
    EXPECT_TRUE(toks[0].is(Token::Kind::Ident, "for"));
    EXPECT_TRUE(toks[1].is(Token::Kind::Punct, "("));
    EXPECT_EQ(toks[4].kind, Token::Kind::Number);
    EXPECT_EQ(toks[4].value, 0);
    EXPECT_TRUE(toks[7].is(Token::Kind::Punct, "<"));
    EXPECT_EQ(toks.back().kind, Token::Kind::End);
    // The comment is skipped: the token after ')' is 'a' on line 2.
    bool sawA = false;
    for (const Token &t : toks)
        if (t.is(Token::Kind::Ident, "a")) {
            sawA = true;
            EXPECT_EQ(t.line, 2);
        }
    EXPECT_TRUE(sawA);
}

TEST(Lexer, TwoCharPunctuators)
{
    const auto toks = lex("<= >= == != << >> && || ++");
    for (size_t i = 0; i + 1 < toks.size(); i++)
        EXPECT_EQ(toks[i].kind, Token::Kind::Punct);
    EXPECT_TRUE(toks[0].is(Token::Kind::Punct, "<="));
    EXPECT_TRUE(toks[5].is(Token::Kind::Punct, ">>"));
    EXPECT_TRUE(toks[8].is(Token::Kind::Punct, "++"));
}

TEST(Lexer, ErrorsCarryPosition)
{
    try {
        lex("x = 1;\n  y @ 2;");
        FAIL() << "expected FrontendError";
    } catch (const FrontendError &e) {
        EXPECT_EQ(e.line(), 2);
        EXPECT_EQ(e.col(), 5);
        EXPECT_NE(std::string(e.what()).find("xl:2:5:"),
                  std::string::npos);
    }
}

TEST(Lexer, LiteralRangeChecked)
{
    EXPECT_NO_THROW(lex("x = 2147483647;"));
    EXPECT_THROW(lex("x = 99999999999;"), FrontendError);
    // Far past i64: accumulation stops at the first overflow, so the
    // literal is rejected without a signed overflow.
    EXPECT_THROW(lex("x = 99999999999999999999999999;"), FrontendError);
}

// --- parser --------------------------------------------------------------

TEST(Parser, ArraysStatementsAndSugar)
{
    const FrontendModule m = parseModule(
        "array A[4] = {1, -2, 3, 4};\n"
        "array B[4];\n"
        "let s = 0;\n"
        "#pragma xloops ordered\n"
        "for (i = 0; i < 4; i++) {\n"
        "    s = s + A[i];\n"
        "    B[i] = s;\n"
        "}\n");
    ASSERT_EQ(m.arrays.size(), 2u);
    EXPECT_EQ(m.arrays[0].name, "A");
    EXPECT_EQ(m.arrays[0].words, 4u);
    ASSERT_EQ(m.arrays[0].init.size(), 4u);
    EXPECT_EQ(m.arrays[0].init[1], -2);
    EXPECT_TRUE(m.arrays[1].init.empty());
    ASSERT_EQ(m.topLevel.size(), 2u);
    EXPECT_EQ(m.topLevel[0].kind, Stmt::Kind::AssignScalar);
    ASSERT_EQ(m.topLevel[1].kind, Stmt::Kind::Nested);
    const Loop &loop = m.topLevel[1].nested.front();
    EXPECT_EQ(loop.iv, "i");
    EXPECT_EQ(loop.pragma, Pragma::Ordered);
    EXPECT_TRUE(loop.hintSpecialize);
    EXPECT_EQ(loop.body.size(), 2u);
}

TEST(Parser, PragmasAndNohint)
{
    const FrontendModule m = parseModule(
        "array B[2];\n"
        "#pragma xloops unordered nohint\n"
        "for (i = 0; i < 2; i++) { B[i] = i; }\n"
        "#pragma xloops auto\n"
        "for (j = 0; j < 2; j++) { B[j] = j; }\n"
        "for (k = 0; k < 2; k++) { B[k] = k; }\n");
    ASSERT_EQ(m.topLevel.size(), 3u);
    EXPECT_EQ(m.topLevel[0].nested.front().pragma, Pragma::Unordered);
    EXPECT_FALSE(m.topLevel[0].nested.front().hintSpecialize);
    EXPECT_EQ(m.topLevel[1].nested.front().pragma, Pragma::Auto);
    EXPECT_EQ(m.topLevel[2].nested.front().pragma, Pragma::None);
}

TEST(Parser, PrecedenceAndUnary)
{
    // 1 + 2 * 3 parses as 1 + (2 * 3); -4 folds into a constant;
    // min/max are calls.
    const FrontendModule m = parseModule(
        "let x = 1 + 2 * 3;\n"
        "let y = -4;\n"
        "let z = max(x, min(y, 7));\n");
    const ExprPtr &sum = m.topLevel[0].value;
    ASSERT_EQ(sum->kind, Expr::Kind::Bin);
    EXPECT_EQ(sum->op, BinOp::Add);
    EXPECT_EQ(sum->rhs->op, BinOp::Mul);
    EXPECT_EQ(m.topLevel[1].value->kind, Expr::Kind::Const);
    EXPECT_EQ(m.topLevel[1].value->cval, -4);
    EXPECT_EQ(m.topLevel[2].value->op, BinOp::Max);
    EXPECT_EQ(m.topLevel[2].value->rhs->op, BinOp::Min);
}

TEST(Parser, RejectsBadInput)
{
    // Undeclared array.
    EXPECT_THROW(parseModule("B[0] = 1;\n"), FrontendError);
    // Induction-variable mismatch in the increment.
    EXPECT_THROW(parseModule("array B[2];\n"
                             "for (i = 0; i < 2; j++) { B[i] = 0; }\n"),
                 FrontendError);
    // Non-unit step.
    EXPECT_THROW(parseModule("array B[4];\n"
                             "for (i = 0; i < 4; i = i + 2) "
                             "{ B[i] = 0; }\n"),
                 FrontendError);
    // Missing semicolon.
    EXPECT_THROW(parseModule("let x = 1\nlet y = 2;\n"), FrontendError);
    // Duplicate array.
    EXPECT_THROW(parseModule("array A[2];\narray A[2];\n"),
                 FrontendError);
    // Initializer longer than the array.
    EXPECT_THROW(parseModule("array A[1] = {1, 2};\n"), FrontendError);
    // Unknown pragma.
    EXPECT_THROW(parseModule("array B[2];\n"
                             "#pragma xloops sideways\n"
                             "for (i = 0; i < 2; i++) { B[i] = 0; }\n"),
                 FrontendError);
}

TEST(Parser, DiagnosticsNameLineAndColumn)
{
    // The exact text of the token-plumbing errors (expect, eat,
    // expectIdent, expectNumber) and of a few statement-level ones.
    const std::pair<const char *, const char *> cases[] = {
        {"let x = 1\nlet y = 2;\n", "xl:2:1: expected ';' (got 'let')"},
        {"array A[;\n", "xl:1:9: expected integer literal (got ';')"},
        {"array 5[2];\n", "xl:1:7: expected array name (got '5')"},
        {"array A[2] = {1 2};\n", "xl:1:17: expected '}' (got '2')"},
        {"x = (1 + 2;\n", "xl:1:11: expected ')' (got ';')"},
        {"x = ;\n", "xl:1:5: expected expression (got ';')"},
        {"x = 1;\nfor (i = 0; i < 4; i++) {\n",
         "xl:3:1: unterminated block; expected '}' (got end of input)"},
        {"#pragma xloops ordered nohint\nx = 1;\n",
         "xl:2:1: expected 'for' after #pragma xloops (got 'x')"},
        {"#pragma loops ordered\n",
         "xl:1:1: expected '#pragma xloops <kind>'"},
        {"break if (1);\n", "xl:1:1: expected 'when' after 'break'"},
        {"array B[4];\nfor (i = 0; i < 4; i = i + 2) { B[i] = 0; }\n",
         "xl:2:28: loop step must be +1 (got '2')"},
        {"x = 1 @ 2;\n", "xl:1:7: unexpected character '@'"},
    };
    for (const auto &[source, message] : cases) {
        try {
            parseModule(source);
            ADD_FAILURE() << "accepted: " << source;
        } catch (const FrontendError &e) {
            EXPECT_EQ(std::string(e.what()), message) << source;
        }
    }
}

/**
 * Hostile input: seeded byte mutants of every .xl file in tests/corpus parse
 * and report their loops, or fail with a FatalError (FrontendError is
 * one); no other exception, and no crash. Mutants are not compiled:
 * a mutated array size may ask for gigabytes.
 */
TEST(ParserHostileInput, MutantsParseOrFailCleanly)
{
    const auto corpus = test::testFiles("corpus", ".xl");
    ASSERT_FALSE(corpus.empty());
    Rng rng(0x5eed);
    for (const auto &path : corpus) {
        const std::string source = loadCorpusFile(path.string()).source;
        const auto runs = test::longDigitRuns(source);
        unsigned ran = 0;
        for (unsigned i = 0; i < 400; i++) {
            const std::string m = test::mutate(source, rng);
            if (test::longDigitRuns(m) != runs)
                continue;
            ran++;
            try {
                reportLoops(parseModule(m).topLevel);
            } catch (const FatalError &) {
            } catch (const std::exception &e) {
                ADD_FAILURE() << path.filename() << " mutant " << i << ": "
                              << e.what() << "\n" << m;
            }
        }
        EXPECT_GT(ran, 300u) << path;
    }
}

TEST(Parser, ArraysMustEndInsideTheAddressSpace)
{
    // Sizes are summed in 64 bits: a 2^30-word array used to become
    // ".space 0" and alias the array after it.
    try {
        parseModule("array A[1073741824];\narray B[4];\n");
        ADD_FAILURE() << "accepted a 2^30-word array";
    } catch (const FrontendError &error) {
        EXPECT_EQ(error.line(), 1u);
        EXPECT_EQ(error.col(), 1u);
        EXPECT_NE(std::string(error.what()).find("past 0xffffffff"),
                  std::string::npos)
            << error.what();
    }
    // The arrays together, too: (2^32 - dataBaseDefault) / 4 words in
    // all fit, one more does not, and the array that overflows is the
    // one named. Parsing allocates nothing.
    EXPECT_NO_THROW(parseModule("array A[4];\narray B[1073479676];\n"));
    try {
        parseModule("array A[4];\narray B[1073479677];\n");
        ADD_FAILURE() << "accepted arrays past the top";
    } catch (const FrontendError &error) {
        EXPECT_EQ(error.line(), 2u);
        EXPECT_NE(std::string(error.what()).find("array 'B'"),
                  std::string::npos)
            << error.what();
    }
}

TEST(Parser, ScalarReadsMustNameAssignedScalars)
{
    auto errorAt = [](const std::string &src) -> std::string {
        try {
            parseModule(src);
        } catch (const FrontendError &e) {
            return e.what();
        }
        return "accepted";
    };
    // A scalar nothing assigns, used as an index.
    EXPECT_NE(errorAt("array A[4];\narray B[4];\n"
                      "for (i = 0; i < 4; i++) { B[l] = A[i]; }\n")
                  .find("3:29: scalar 'l' is never assigned"),
              std::string::npos)
        << errorAt("array A[4];\narray B[4];\n"
                   "for (i = 0; i < 4; i++) { B[l] = A[i]; }\n");
    // An array read as a scalar, in a loop header.
    EXPECT_NE(errorAt("array B[4];\n"
                      "for (i = B; i < 4; i++) { B[i] = 0; }\n")
                  .find("2:10: array 'B' used as a scalar"),
              std::string::npos);
    EXPECT_THROW(parseModule("let x = y;\n"), FrontendError);
    EXPECT_THROW(parseModule("array A[2];\nlet x = A + 1;\n"),
                 FrontendError);
    // Assigned anywhere in the module counts, before or after the
    // read, by `=`, `let` or a loop header.
    EXPECT_NO_THROW(parseModule("array B[4];\n"
                                "for (i = 0; i < n; i++) { B[i] = s; }\n"
                                "let n = 4;\ns = 1;\n"));
    EXPECT_NO_THROW(parseModule("array B[4];\n"
                                "for (i = 0; i < 4; i++) {\n"
                                "  for (j = i; j < 4; j++) { B[j] = i; }\n"
                                "}\n"));
}

TEST(Parser, BreakWhenAndDynamicBound)
{
    const FrontendModule m = parseModule(
        "array A[8] = {1, 2, 3, 4, 5, 6, 7, 8};\n"
        "array B[8];\n"
        "let s = 0;\n"
        "let n = 8;\n"
        "#pragma xloops ordered\n"
        "for (i = 0; i < n; i++) {\n"
        "    s = s + A[i];\n"
        "    B[i] = s;\n"
        "    break when (s > 10);\n"
        "}\n");
    const Loop &loop = m.topLevel.back().nested.front();
    EXPECT_EQ(loop.body.back().kind, Stmt::Kind::ExitWhen);
    EXPECT_EQ(loop.upper->kind, Expr::Kind::Var);
}

// --- render round-trip ---------------------------------------------------

TEST(Render, RoundTripIsFixpoint)
{
    const char *src =
        "array A[6] = {3, 1, 4, 1, 5, 9};\n"
        "array B[8];\n"
        "let p = 7;\n"
        "#pragma xloops auto\n"
        "for (i = 0; i < 6; i++) {\n"
        "    if ((A[i] & 1) == 1) {\n"
        "        B[i] = A[i] * p;\n"
        "    } else {\n"
        "        B[i] = 0 - A[i];\n"
        "    }\n"
        "}\n";
    const std::string once = renderModule(parseModule(src));
    const std::string twice = renderModule(parseModule(once));
    EXPECT_EQ(once, twice);
}

// --- pattern-selection oracle --------------------------------------------

struct OracleCase
{
    const char *label;
    const char *source;
    std::vector<std::string> expect;
};

TEST(Oracle, SelectionsMatchHandComputedTruth)
{
    const std::vector<OracleCase> cases = {
        {"uc: independent elementwise",
         "array A[8] = {1, 2, 3, 4, 5, 6, 7, 8};\narray B[8];\n"
         "#pragma xloops unordered\n"
         "for (i = 0; i < 8; i++) { B[i] = A[i] * 2; }\n",
         {"uc"}},
        {"or: scalar accumulation only",
         "array A[8] = {1, 2, 3, 4, 5, 6, 7, 8};\narray B[8];\n"
         "let s = 0;\n#pragma xloops ordered\n"
         "for (i = 0; i < 8; i++) { s = s + A[i]; B[i] = s; }\n",
         {"or"}},
        {"om: carried memory flow",
         "array B[12] = {5, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0};\n"
         "#pragma xloops ordered\n"
         "for (i = 0; i < 10; i++) { B[i + 2] = B[i] + 1; }\n",
         {"om"}},
        {"orm: register and memory carried",
         "array B[12];\nlet s = 1;\n#pragma xloops ordered\n"
         "for (i = 0; i < 10; i++) { s = s + B[i]; "
         "B[i + 2] = s; }\n",
         {"orm"}},
        {"ua: atomic histogram",
         "array A[8] = {1, 2, 3, 1, 2, 3, 1, 2};\narray H[4];\n"
         "#pragma xloops atomic\n"
         "for (i = 0; i < 8; i++) { H[A[i] & 3] = H[A[i] & 3] + 1; "
         "}\n",
         {"ua"}},
        {"or.db: dynamic bound with accumulator",
         "array A[16] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, "
         "14, 15, 16};\narray B[16];\nlet s = 0;\nlet n = 8;\n"
         "#pragma xloops ordered\n"
         "for (i = 0; i < n; i++) { s = s + A[i]; B[i] = s; "
         "if ((A[i] & 1) == 1) { n = max(n, min(i + 2, 12)); } }\n",
         {"or.db"}},
        {"om.de: data-dependent exit, memory only",
         "array A[8] = {9, 9, 9, 42, 9, 9, 9, 9};\narray B[8];\n"
         "#pragma xloops ordered\n"
         "for (i = 0; i < 8; i++) { B[i] = A[i]; "
         "break when (A[i] == 42); }\n",
         {"om.de"}},
        {"orm.de: data-dependent exit with CIR",
         "array A[8] = {3, 3, 3, 3, 3, 3, 3, 3};\narray B[8];\n"
         "let s = 0;\n#pragma xloops ordered\n"
         "for (i = 0; i < 8; i++) { s = s + A[i]; B[i] = s; "
         "break when (s > 7); }\n",
         {"orm.de"}},
        {"serial: no pragma",
         "array B[4];\n"
         "for (i = 0; i < 4; i++) { B[i] = i; }\n",
         {"serial"}},
        {"om?: speculative DOACROSS on indirect update",
         "array C[8] = {0, 1, 2, 3, 0, 1, 2, 3};\narray B[4];\n"
         "#pragma xloops auto\n"
         "for (i = 0; i < 8; i++) { B[C[i]] = B[C[i]] + 1; }\n",
         {"om?"}},
        {"uc from auto: no dependences",
         "array A[8] = {1, 2, 3, 4, 5, 6, 7, 8};\narray B[8];\n"
         "#pragma xloops auto\n"
         "for (i = 0; i < 8; i++) { B[i] = A[i] + 1; }\n",
         {"uc"}},
        {"om from auto: proven carried distance is not speculative",
         "array B[12] = {1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0};\n"
         "#pragma xloops auto\n"
         "for (i = 0; i < 10; i++) { B[i + 2] = B[i] + 1; }\n",
         {"om"}},
        {"nested: specialized outer, serial inner",
         "array A[4] = {1, 2, 3, 4};\narray D[4];\n"
         "#pragma xloops ordered\n"
         "for (i = 0; i < 4; i++) {\n"
         "    let s = 0;\n"
         "    for (j = 0; j < 3; j++) { s = s + A[j]; }\n"
         "    D[i] = s + i;\n"
         "}\n",
         {"uc", "serial"}},
    };
    for (const OracleCase &c : cases) {
        const FrontendModule m = parseModule(c.source);
        const std::vector<LoopReport> reps = reportLoops(m.topLevel);
        ASSERT_EQ(reps.size(), c.expect.size()) << c.label;
        for (size_t i = 0; i < reps.size(); i++)
            EXPECT_EQ(reps[i].selection, c.expect[i])
                << c.label << " (loop " << i << ")";
    }
}

TEST(Oracle, SpeculativeFlagSurfacesInReport)
{
    const FrontendModule m = parseModule(
        "array C[8] = {0, 1, 2, 3, 0, 1, 2, 3};\narray B[4];\n"
        "#pragma xloops auto\n"
        "for (i = 0; i < 8; i++) { B[C[i]] = B[C[i]] + 1; }\n");
    const std::vector<LoopReport> reps = reportLoops(m.topLevel);
    ASSERT_EQ(reps.size(), 1u);
    EXPECT_TRUE(reps[0].speculative);
    EXPECT_TRUE(reps[0].inconclusive);
}

// --- fission -------------------------------------------------------------

const char *fissionSrc =
    "array A[8] = {1, 2, 3, 4, 5, 6, 7, 8};\n"
    "array B[8];\narray C[8];\n"
    "let s = 0;\n"
    "#pragma xloops ordered\n"
    "for (i = 0; i < 8; i++) {\n"
    "    B[i] = A[i] * 3;\n"
    "    s = s + A[i];\n"
    "    C[i] = s;\n"
    "}\n";

TEST(Fission, SplitsMixedBodyIntoUcAndOr)
{
    // Whole loop: the s-accumulation forces "or". Fissioned: the
    // independent B store becomes its own "uc" loop.
    FrontendOptions plain;
    const CompiledModule whole = compileSource(fissionSrc, plain);
    ASSERT_EQ(whole.loops.size(), 1u);
    EXPECT_EQ(whole.loops[0].selection, "or");
    EXPECT_FALSE(whole.fissionApplied);

    FrontendOptions fiss;
    fiss.fission = true;
    const CompiledModule split = compileSource(fissionSrc, fiss);
    EXPECT_TRUE(split.fissionApplied);
    ASSERT_EQ(split.loops.size(), 2u);
    EXPECT_EQ(split.loops[0].selection, "uc");
    EXPECT_EQ(split.loops[1].selection, "or");
}

// --- end-to-end execution ------------------------------------------------

/** Compile (optionally with fission), run in @p mode, return the
 *  final words of array @p name. */
std::vector<u32>
runArray(const char *src, bool fission, ExecMode mode,
         const std::string &name)
{
    FrontendOptions opts;
    opts.fission = fission;
    const CompiledModule cm = compileSource(src, opts);
    XloopsSystem sys(configs::byName("io+x"));
    sys.loadProgram(cm.program);
    RunOptions ro;
    ro.lockstep = true;
    sys.run(cm.program, mode, 2'000'000, ro);
    const ArrayDeclInfo *decl = cm.module.findArray(name);
    EXPECT_NE(decl, nullptr);
    std::vector<u32> words;
    const Addr base = cm.program.symbol(name);
    for (unsigned i = 0; i < decl->words; i++)
        words.push_back(sys.memory().readWord(base + 4 * i));
    return words;
}

TEST(EndToEnd, SpecializedMatchesTraditional)
{
    for (const char *name : {"B", "C"}) {
        EXPECT_EQ(runArray(fissionSrc, false, ExecMode::Traditional,
                           name),
                  runArray(fissionSrc, false, ExecMode::Specialized,
                           name))
            << name;
    }
}

TEST(EndToEnd, FissionPreservesSemantics)
{
    // Fissioned specialized output vs the unfissioned traditional
    // reference: the prepass must not change observable results.
    for (const char *name : {"B", "C"}) {
        EXPECT_EQ(runArray(fissionSrc, false, ExecMode::Traditional,
                           name),
                  runArray(fissionSrc, true, ExecMode::Specialized,
                           name))
            << name;
    }
}

TEST(EndToEnd, AtomicHistogramLowersToAmoAndMatches)
{
    // Regression for the xloop.ua lowering gap the fuzzer exposed:
    // a plain lw/add/sw read-modify-write inside an unordered-atomic
    // body loses updates; the backend must emit AMOs.
    const char *src =
        "array A[16] = {1, 2, 3, 1, 2, 3, 1, 2, 5, 6, 7, 5, 6, 7, 5, "
        "6};\narray H[8];\n"
        "#pragma xloops atomic\n"
        "for (i = 0; i < 16; i++) { H[A[i] & 7] = H[A[i] & 7] + 1; "
        "}\n";
    FrontendOptions opts;
    const CompiledModule cm = compileSource(src, opts);
    EXPECT_NE(cm.assembly.find("amoadd"), std::string::npos);
    EXPECT_EQ(runArray(src, false, ExecMode::Traditional, "H"),
              runArray(src, false, ExecMode::Specialized, "H"));
}

} // namespace
} // namespace xloops
