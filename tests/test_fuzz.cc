// Fuzzer infrastructure tests: generator determinism and soundness
// (every generated program re-parses, and the analyzer agrees with
// the by-construction ground truth), the differential harness on a
// sample of seeds, corpus-file directive parsing, and the shrinker's
// fixpoint contract.

#include <gtest/gtest.h>

#include <fstream>
#include <set>

#include "frontend/frontend.h"
#include "frontend/render.h"
#include "fuzz/harness.h"
#include "fuzz/shrink.h"

namespace xloops {
namespace {

TEST(Gen, Deterministic)
{
    for (const u64 seed : {1ull, 7ull, 1234ull, 0xdeadbeefull}) {
        const GenProgram a = generateProgram(seed);
        const GenProgram b = generateProgram(seed);
        EXPECT_EQ(a.name, b.name);
        EXPECT_EQ(a.recipe, b.recipe);
        EXPECT_EQ(a.source, b.source);
        EXPECT_EQ(a.truths, b.truths);
        EXPECT_EQ(a.fissionTruths, b.fissionTruths);
    }
}

TEST(Gen, EverySeedRendersReparsesAndRoundTrips)
{
    for (u64 seed = 1; seed <= 100; seed++) {
        const GenProgram p = generateProgram(seed);
        FrontendModule reparsed;
        ASSERT_NO_THROW(reparsed = parseModule(p.source))
            << p.name << "\n" << p.source;
        EXPECT_EQ(renderModule(reparsed), p.source) << p.name;
    }
}

TEST(Gen, AnalyzerAgreesWithGroundTruth)
{
    // The core soundness property, checked statically (no simulation)
    // over many seeds: the analyzer's pattern selections equal the
    // generator's by-construction truths, and for fission candidates
    // the post-fission selections equal the fission truths.
    std::set<std::string> recipesSeen;
    for (u64 seed = 1; seed <= 300; seed++) {
        const GenProgram p = generateProgram(seed);
        recipesSeen.insert(p.recipe);
        const FrontendModule mod = parseModule(p.source);
        const std::vector<LoopReport> reps = reportLoops(mod.topLevel);
        ASSERT_EQ(reps.size(), p.truths.size())
            << p.name << "\n" << p.source;
        for (size_t i = 0; i < reps.size(); i++)
            EXPECT_EQ(reps[i].selection, p.truths[i])
                << p.name << " loop " << i << "\n" << p.source;
        if (p.useFission) {
            FrontendOptions fo;
            fo.fission = true;
            const CompiledModule fm = compileModule(mod, fo);
            ASSERT_EQ(fm.loops.size(), p.fissionTruths.size())
                << p.name;
            for (size_t i = 0; i < fm.loops.size(); i++)
                EXPECT_EQ(fm.loops[i].selection, p.fissionTruths[i])
                    << p.name << " fission loop " << i;
        }
    }
    // 300 seeds must exercise every recipe.
    EXPECT_EQ(recipesSeen.size(), recipeNames().size());
}

TEST(Harness, DifferentialPropertyHoldsOnSample)
{
    // A small in-process sample of the fuzz_smoke ctest target (which
    // drives 200 seeds through the xfuzz binary): full differential
    // checks with fault injection on a handful of seeds.
    FuzzOptions opts;
    for (u64 seed = 31; seed <= 40; seed++) {
        const GenProgram p = generateProgram(seed);
        const FuzzVerdict v = checkProgram(p, opts);
        EXPECT_TRUE(v.ok())
            << p.name << " failed " << v.firstPhase() << ": "
            << (v.failures.empty() ? "" : v.failures[0].detail) << "\n"
            << p.source;
    }
}

TEST(Harness, CorpusDirectivesParse)
{
    const std::string path = "corpus_case_tmp.xl";
    {
        std::ofstream out(path);
        out << "//! expect: or, serial\n"
               "//! options: fission\n"
               "//! fission-expect: uc, or, serial\n"
               "//! seed: 42\n"
               "array B[4];\n"
               "#pragma xloops ordered\n"
               "for (i = 0; i < 4; i++) { B[i] = i; }\n";
    }
    const CorpusCase c = loadCorpusFile(path);
    EXPECT_EQ(c.expect, (std::vector<std::string>{"or", "serial"}));
    EXPECT_TRUE(c.fission);
    EXPECT_EQ(c.fissionExpect,
              (std::vector<std::string>{"uc", "or", "serial"}));
    EXPECT_EQ(c.seed, 42u);
    // Directive lines stay in the source as comments.
    EXPECT_NE(c.source.find("#pragma"), std::string::npos);
    std::remove(path.c_str());
}

TEST(Harness, MissingExpectDirectiveRejected)
{
    const std::string path = "corpus_bad_tmp.xl";
    {
        std::ofstream out(path);
        out << "array B[2];\n"
               "for (i = 0; i < 2; i++) { B[i] = i; }\n";
    }
    EXPECT_THROW(loadCorpusFile(path), FatalError);
    std::remove(path.c_str());
}

TEST(Harness, MalformedSeedDirectiveNamesTheFile)
{
    const std::string path = "corpus_bad_seed_tmp.xl";
    {
        std::ofstream out(path);
        out << "//! expect: uc\n"
               "//! seed: abc\n"
               "array B[2];\n"
               "for (i = 0; i < 2; i++) { B[i] = i; }\n";
    }
    try {
        loadCorpusFile(path);
        ADD_FAILURE() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
            << e.what();
    }
    std::remove(path.c_str());
}

TEST(Harness, WrongTruthIsCaught)
{
    GenProgram p = generateProgram(3);
    p.truths.push_back("uc");  // one loop too many
    FuzzOptions opts;
    const FuzzVerdict v = checkProgram(p, opts);
    EXPECT_FALSE(v.ok());
    EXPECT_EQ(v.firstPhase(), "truth");
}

TEST(Shrink, ReachesFixpointAndPreservesPredicate)
{
    // Minimize "the first loop's selection is 'or'" starting from a
    // regdep program with extra structure. The shrunk program must
    // still satisfy the predicate, and no single further edit may.
    GenProgram p;
    p.name = "shrinkme";
    p.source =
        "array A[8] = {1, 2, 3, 4, 5, 6, 7, 8};\n"
        "array B[8];\narray D[6];\n"
        "let q = 5;\n"
        "let s = 0;\n"
        "#pragma xloops ordered\n"
        "for (i = 0; i < 8; i++) {\n"
        "    if (A[i] > 2) {\n"
        "        s = s + A[i] * q;\n"
        "    } else {\n"
        "        s = s + 1;\n"
        "    }\n"
        "    B[i] = s;\n"
        "}\n"
        "#pragma xloops unordered\n"
        "for (k = 0; k < 6; k++) {\n"
        "    D[k] = k * 2;\n"
        "}\n";
    p.module = parseModule(p.source);

    const FailPredicate firstIsOr = [](const GenProgram &g) {
        try {
            const auto reps =
                reportLoops(parseModule(g.source).topLevel);
            return !reps.empty() && reps[0].selection == "or";
        } catch (...) {
            return false;
        }
    };
    ASSERT_TRUE(firstIsOr(p));
    const GenProgram shrunk = shrinkProgram(p, firstIsOr);
    EXPECT_TRUE(firstIsOr(shrunk));
    EXPECT_LT(shrunk.source.size(), p.source.size());
    // The unrelated second loop and the if must both be gone.
    EXPECT_EQ(shrunk.source.find("unordered"), std::string::npos);
    EXPECT_EQ(shrunk.source.find("if"), std::string::npos);
    // Fixpoint: no single remaining edit still satisfies the
    // predicate.
    for (const FrontendModule &cand : shrinkCandidates(shrunk.module)) {
        GenProgram next = shrunk;
        next.module = cand;
        next.source = renderModule(next.module);
        EXPECT_FALSE(firstIsOr(next)) << next.source;
    }
}

} // namespace
} // namespace xloops
