#include "kernels/kernel.h"

#include <algorithm>
#include <sstream>

#include "asm/assembler.h"
#include "common/log.h"
#include "cpu/threaded.h"

namespace xloops {

// Registered by the per-pattern kernel translation units.
std::vector<Kernel> makeUcKernels();
std::vector<Kernel> makeOrKernels();
std::vector<Kernel> makeOmKernels();
std::vector<Kernel> makeUaKernels();
std::vector<Kernel> makeDbKernels();
std::vector<Kernel> makeOptKernels();

const std::vector<Kernel> &
kernelRegistry()
{
    static const std::vector<Kernel> all = [] {
        std::vector<Kernel> v;
        for (auto maker : {makeUcKernels, makeOrKernels, makeOmKernels,
                           makeUaKernels, makeDbKernels, makeOptKernels}) {
            auto part = maker();
            v.insert(v.end(), std::make_move_iterator(part.begin()),
                     std::make_move_iterator(part.end()));
        }
        return v;
    }();
    return all;
}

const Kernel &
kernelByName(const std::string &name)
{
    for (const Kernel &k : kernelRegistry())
        if (k.name == name)
            return k;
    fatal(strf("unknown kernel '", name, "'"));
}

std::vector<std::string>
tableIIKernelNames()
{
    return {
        "rgb2cmyk-uc", "sgemm-uc",   "ssearch-uc",  "symm-uc",
        "viterbi-uc",  "war-uc",     "adpcm-or",    "covar-or",
        "dither-or",   "kmeans-or",  "sha-or",      "symm-or",
        "dynprog-om",  "knn-om",     "ksack-sm-om", "ksack-lg-om",
        "war-om",      "mm-orm",     "stencil-om",  "btree-ua",
        "hsort-ua",    "huffman-ua", "rsort-ua",    "bfs-uc-db",
        "qsort-uc-db",
    };
}

std::string
serializeToGpIsa(const std::string &source)
{
    std::ostringstream out;
    std::istringstream in(source);
    std::string line;
    while (std::getline(in, line)) {
        // Find the mnemonic (first token).
        const size_t b = line.find_first_not_of(" \t");
        if (b == std::string::npos || line[b] == '#' || line[b] == '.') {
            out << line << "\n";
            continue;
        }
        const size_t e = line.find_first_of(" \t", b);
        const std::string head =
            line.substr(b, e == std::string::npos ? std::string::npos
                                                  : e - b);
        if (head.rfind("xloop.", 0) == 0) {
            // xloop.<pat> rI, rB, L [, nohint]
            std::string rest =
                e == std::string::npos ? "" : line.substr(e);
            // Strip comments and the nohint flag.
            const size_t hash = rest.find('#');
            if (hash != std::string::npos)
                rest.resize(hash);
            const size_t nh = rest.find(", nohint");
            if (nh != std::string::npos)
                rest.erase(nh, 8);
            std::istringstream ops(rest);
            std::string ri, rb, label;
            std::getline(ops, ri, ',');
            std::getline(ops, rb, ',');
            std::getline(ops, label, ',');
            auto trim = [](std::string s) {
                const size_t x = s.find_first_not_of(" \t");
                const size_t y = s.find_last_not_of(" \t");
                return x == std::string::npos
                           ? std::string()
                           : s.substr(x, y - x + 1);
            };
            out << "  addi " << trim(ri) << ", " << trim(ri) << ", 1\n";
            out << "  blt " << trim(ri) << ", " << trim(rb) << ", "
                << trim(label) << "\n";
        } else if (head == "addiu.xi") {
            std::string rest = line.substr(e);
            std::istringstream ops(rest);
            std::string rx, imm;
            std::getline(ops, rx, ',');
            std::getline(ops, imm, ',');
            out << "  addi" << rx << "," << rx << "," << imm << "\n";
        } else if (head == "addu.xi") {
            std::string rest = line.substr(e);
            std::istringstream ops(rest);
            std::string rx, rt;
            std::getline(ops, rx, ',');
            std::getline(ops, rt, ',');
            out << "  add" << rx << "," << rx << "," << rt << "\n";
        } else {
            out << line << "\n";
        }
    }
    return out.str();
}

KernelRun
runKernel(const Kernel &kernel, const SysConfig &cfg, ExecMode mode,
          bool useGpIsaBinary, const RunHooks &hooks)
{
    KernelRun run;
    const std::string src =
        useGpIsaBinary ? serializeToGpIsa(kernel.source) : kernel.source;
    const Program prog = assemble(src);

    XloopsSystem sys(cfg);
    sys.loadProgram(prog);
    if (kernel.setup)
        kernel.setup(sys.memory(), prog);
    sys.setObserver(hooks.tracer, hooks.profiler);
    run.result = sys.run(prog, mode, hooks.maxInsts,
                         hooks.runOptions ? *hooks.runOptions
                                          : RunOptions{});

    // Serial golden model on an identical memory image. The threaded
    // executor is bit-equivalent to the legacy switch (proven by
    // tests/test_threaded_exec.cc and the kernel equivalence sweep) and
    // runs the golden pass several times faster.
    MainMemory golden;
    prog.loadInto(golden);
    if (kernel.setup)
        kernel.setup(golden, prog);
    ThreadedExecutor exec(golden);
    run.xlDynInsts = exec.run(prog).dynInsts;

    run.passed = true;
    if (kernel.deterministic) {
        for (const auto &[symbol, words] : kernel.outputs) {
            const Addr base = prog.symbol(symbol);
            for (unsigned i = 0; i < words && run.passed; i++) {
                if (sys.memory().readWord(base + 4 * i) !=
                    golden.readWord(base + 4 * i)) {
                    run.passed = false;
                    run.error = strf(kernel.name, ": ", symbol, "[", i,
                                     "] = ",
                                     sys.memory().readWord(base + 4 * i),
                                     ", serial = ",
                                     golden.readWord(base + 4 * i));
                }
            }
        }
    }
    if (run.passed && kernel.check) {
        std::string why;
        if (!kernel.check(sys.memory(), prog, why)) {
            run.passed = false;
            run.error = kernel.name + ": " + why;
        }
    }
    return run;
}

} // namespace xloops
