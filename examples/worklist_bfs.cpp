/**
 * @file
 * Dynamic-bound worklists (xloop.uc.db): run the bfs-uc-db kernel —
 * the paper's Figure 1(e) idiom, where iterations reserve worklist
 * slots with an AMO and monotonically raise the loop bound — across
 * the three XLOOPS hosts and show how the hardware discovers the
 * dynamically generated parallelism.
 */

#include <cstdio>

#include "asm/assembler.h"
#include "kernels/kernel.h"

using namespace xloops;

int
main()
{
    const Kernel &k = kernelByName("bfs-uc-db");

    std::printf("bfs-uc-db: label-correcting BFS on a 64-node graph\n\n");
    for (const auto &cfg :
         {configs::ioX(), configs::ooo2X(), configs::ooo4X()}) {
        const KernelRun trad =
            runKernel(k, cfg, ExecMode::Traditional);
        const KernelRun spec =
            runKernel(k, cfg, ExecMode::Specialized);
        std::printf("%-9s traditional %8llu cycles | specialized %8llu "
                    "cycles | speedup %.2fx | %s\n",
                    cfg.name.c_str(),
                    static_cast<unsigned long long>(trad.result.cycles),
                    static_cast<unsigned long long>(spec.result.cycles),
                    static_cast<double>(trad.result.cycles) /
                        static_cast<double>(spec.result.cycles),
                    spec.passed ? "distances verified" : spec.error.c_str());
    }

    // Peek at the dynamic bound growth on one run.
    const Program prog = assemble(k.source);
    XloopsSystem sys(configs::ioX());
    sys.loadProgram(prog);
    k.setup(sys.memory(), prog);
    sys.run(prog, ExecMode::Specialized);
    std::printf("\nworklist grew to %u entries; LMU recorded %llu bound "
                "updates\n",
                sys.memory().readWord(prog.symbol("tail")),
                static_cast<unsigned long long>(
                    sys.lpsuModel().stats().get(Stat::BoundUpdates)));
    std::printf("distances from node 0: ");
    for (unsigned v = 0; v < 8; v++)
        std::printf("%u ", sys.memory().readWord(prog.symbol("dist") + 4 * v));
    std::printf("...\n");
    return 0;
}
