/**
 * @file
 * xfc — loop-nest language compiler driver.
 *
 * Compiles an .xl source file through the frontend (parse → optional
 * fission prepass → dependence analysis → pattern selection → XLOOPS
 * assembly) and can run the result both ways:
 *
 *   xfc prog.xl -o prog.s          emit assembly
 *   xfc prog.xl --report           per-loop pattern-selection report
 *   xfc prog.xl --run              traditional vs specialized run,
 *                                  every declared array compared
 *   xfc prog.xl --fission --run    same, with the fission prepass
 *
 * Exit codes: 0 clean, 1 user/compile error, 2 array mismatch between
 * the traditional and specialized runs.
 */

#include <cstdio>
#include <fstream>

#include "common/cli.h"
#include "common/log.h"
#include "common/serialize.h"
#include "common/sim_error.h"
#include "frontend/frontend.h"
#include "system/config.h"
#include "system/system.h"

using namespace xloops;

namespace {

/** Run @p prog in @p mode under the lockstep checker and return the
 *  final contents of every declared array. */
std::vector<std::vector<u32>>
runMode(const CompiledModule &cm, const SysConfig &cfg, ExecMode mode)
{
    XloopsSystem sys(cfg);
    sys.loadProgram(cm.program);
    RunOptions ro;
    ro.lockstep = true;
    sys.run(cm.program, mode, 500'000'000, ro);
    std::vector<std::vector<u32>> out;
    for (const ArrayDeclInfo &a : cm.module.arrays) {
        std::vector<u32> words;
        const Addr base = cm.program.symbol(a.name);
        for (unsigned i = 0; i < a.words; i++)
            words.push_back(sys.memory().readWord(base + 4 * i));
        out.push_back(std::move(words));
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string path;
    std::string outPath;
    std::string cfgName = "io+x";
    bool report = false;
    bool run = false;
    FrontendOptions fopts;

    cli::Command cmd{
        "xfc",
        "[options] program.xl",
        {
            cli::option("-o", "<file>", "write the generated assembly",
                        outPath),
            cli::option("-c", "<config>",
                        "system configuration for --run (default io+x)",
                        cfgName),
            cli::toggle("--report",
                        "print the per-loop pattern-selection report",
                        report),
            cli::toggle("--run",
                        "run traditional and specialized, compare all "
                        "arrays",
                        run),
            cli::toggle("--fission", "apply the loop-fission prepass",
                        fopts.fission),
            {"--no-lsr", "", "disable loop strength reduction",
             [&fopts](const std::string &) { fopts.lsr = false; }},
        }};
    cmd.positional = [&](const std::string &arg) {
        if (!path.empty())
            cli::usageError(cmd, "more than one input file");
        path = arg;
    };

    try {
        cli::parseCommandLine(cmd, argc, argv);
        if (path.empty())
            cli::usageError(cmd, "no input file given");

        const CompiledModule cm = compileSource(readFile(path), fopts);

        if (report) {
            if (cm.fissionApplied)
                std::printf("fission: applied\n");
            for (const LoopReport &r : cm.loops) {
                std::printf("loop %*s%s: %s", r.depth * 2, "",
                            r.iv.c_str(), r.selection.c_str());
                if (r.speculative)
                    std::printf(" (speculative)");
                if (r.inconclusive)
                    std::printf(" (analysis inconclusive)");
                if (!r.cirs.empty()) {
                    std::printf(" cirs:");
                    for (const std::string &cir : r.cirs)
                        std::printf(" %s", cir.c_str());
                }
                std::printf("\n");
            }
        }

        if (!outPath.empty()) {
            std::ofstream out(outPath);
            if (!out)
                fatal("cannot write " + outPath);
            out << cm.assembly;
            std::printf("assembly: %s\n", outPath.c_str());
        }

        if (run) {
            const SysConfig cfg = configs::byName(cfgName);
            const auto trad = runMode(cm, cfg, ExecMode::Traditional);
            const auto spec = runMode(cm, cfg, ExecMode::Specialized);
            unsigned mismatches = 0;
            for (size_t a = 0; a < cm.module.arrays.size(); a++) {
                for (size_t i = 0; i < trad[a].size(); i++) {
                    if (trad[a][i] != spec[a][i] && mismatches++ < 8) {
                        std::printf(
                            "MISMATCH %s[%zu]: traditional=%d "
                            "specialized=%d\n",
                            cm.module.arrays[a].name.c_str(), i,
                            static_cast<i32>(trad[a][i]),
                            static_cast<i32>(spec[a][i]));
                    }
                }
            }
            if (mismatches) {
                std::printf("xfc: %u words differ\n", mismatches);
                return 2;
            }
            std::printf("xfc: traditional and specialized runs "
                        "match\n");
        }
        return 0;
    } catch (const SimError &error) {
        std::fprintf(stderr, "%s\n", error.what());
        return error.exitCode();
    } catch (const PanicError &error) {
        std::fprintf(stderr, "%s\n", error.what());
        return 4;
    } catch (const FatalError &error) {
        std::fprintf(stderr, "%s\n", error.what());
        return 1;
    }
}
