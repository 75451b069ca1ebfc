// Front-end byte identity: every program image the assembler and the
// .xl compiler produce from the committed inputs must match the digests
// in tests/golden/frontend_images.txt. The inputs are every registry
// kernel (XLOOPS and GP-ISA binaries), tests/asm/*.s, the assembler
// syntax sampler, tests/corpus/*.xl and generated programs of seeds
// 1-500; .xl inputs are compiled plain and, where they are fission
// candidates, fissioned. A failure names the inputs whose line changed.
//
// The computed document is written to frontend_images.actual.txt in
// the working directory. When a change of output is intended, copy it
// over tests/golden/frontend_images.txt.

#include <gtest/gtest.h>

#include "asm/assembler.h"
#include "frontend/frontend.h"
#include "fuzz/gen.h"
#include "fuzz/harness.h"
#include "inputs.h"
#include "kernels/kernel.h"

namespace xloops {
namespace {

/** FNV-1a, 64-bit. */
struct Digest
{
    u64 h = 0xcbf29ce484222325ull;

    void
    bytes(const void *p, size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (size_t i = 0; i < n; i++)
            h = (h ^ b[i]) * 0x100000001b3ull;
    }
    void u32v(u32 v) { bytes(&v, sizeof v); }
    void
    str(const std::string &s)
    {
        u32v(static_cast<u32>(s.size()));
        bytes(s.data(), s.size());
    }
    std::string hex() const { return strf(std::hex, h); }
};

/** Entry, text words, each data chunk's base and bytes, and every
 *  symbol's name and address. */
std::string
imageDigest(const Program &prog)
{
    Digest d;
    d.u32v(prog.textBase);
    d.u32v(prog.entry);
    d.u32v(static_cast<u32>(prog.text.size()));
    for (const u32 w : prog.text)
        d.u32v(w);
    d.u32v(static_cast<u32>(prog.data.size()));
    for (const auto &chunk : prog.data) {
        d.u32v(chunk.base);
        d.u32v(static_cast<u32>(chunk.bytes.size()));
        d.bytes(chunk.bytes.data(), chunk.bytes.size());
    }
    d.u32v(static_cast<u32>(prog.symbols.size()));
    for (const auto &[name, addr] : prog.symbols) {
        d.str(name);
        d.u32v(addr);
    }
    return d.hex();
}

/** One line per assembly input: the image digest, or the diagnostic. */
std::string
asmLine(const std::string &name, const std::string &source)
{
    try {
        return name + " image=" + imageDigest(assemble(source));
    } catch (const FatalError &e) {
        return name + " error=" + e.what();
    }
}

/** Lines for one .xl input: plain, and fissioned when @p fission. */
void
xlLines(const std::string &name, const std::string &source, bool fission,
        std::vector<std::string> &out)
{
    for (const bool fis : {false, true}) {
        if (fis && !fission)
            continue;
        const std::string tag = name + (fis ? " fission" : " plain");
        try {
            FrontendOptions opts;
            opts.fission = fis;
            const CompiledModule cm = compileSource(source, opts);
            Digest text;
            text.str(cm.assembly);
            out.push_back(tag + " image=" + imageDigest(cm.program) +
                          " codegen=" + text.hex());
        } catch (const FatalError &e) {
            out.push_back(tag + " error=" + e.what());
        }
    }
}

std::vector<std::string>
computeDocument()
{
    std::vector<std::string> out;
    for (const Kernel &k : kernelRegistry()) {
        out.push_back(asmLine("kernel " + k.name + " xloops", k.source));
        out.push_back(asmLine("kernel " + k.name + " gp-isa",
                              serializeToGpIsa(k.source)));
    }
    for (const auto &path : test::testFiles("asm", ".s"))
        out.push_back(asmLine("asm " + path.filename().string(),
                              test::readFile(path)));
    out.push_back(asmLine("asm sampler", test::asmSampler));
    for (const auto &path : test::testFiles("corpus", ".xl")) {
        const CorpusCase c = loadCorpusFile(path.string());
        xlLines("xl " + path.filename().string(), c.source, c.fission, out);
    }
    for (u64 seed = 1; seed <= 500; seed++) {
        const GenProgram gp = generateProgram(seed);
        xlLines("gen " + std::to_string(seed), gp.source, gp.useFission,
                out);
    }
    return out;
}

std::vector<std::string>
readLines(const std::string &path)
{
    std::vector<std::string> out;
    std::istringstream in(test::readFile(path));
    for (std::string line; std::getline(in, line);)
        out.push_back(line);
    return out;
}

TEST(FrontendImages, MatchTheGoldenDigests)
{
    const std::vector<std::string> actual = computeDocument();
    {
        std::ofstream doc("frontend_images.actual.txt");
        for (const std::string &line : actual)
            doc << line << "\n";
    }
    const std::vector<std::string> golden = readLines(
        std::string(XLOOPS_TESTS_DIR) + "/golden/frontend_images.txt");
    ASSERT_FALSE(golden.empty()) << "golden/frontend_images.txt is missing";
    EXPECT_EQ(actual.size(), golden.size());
    size_t shown = 0;
    for (size_t i = 0; i < std::min(actual.size(), golden.size()); i++) {
        if (actual[i] != golden[i] && shown++ < 20)
            ADD_FAILURE() << "line " << i + 1 << "\n  golden: " << golden[i]
                          << "\n  actual: " << actual[i];
    }
    EXPECT_EQ(shown, 0u) << "lines differ; the computed document is "
                            "frontend_images.actual.txt";
}

} // namespace
} // namespace xloops
