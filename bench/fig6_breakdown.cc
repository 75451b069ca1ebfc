/**
 * @file
 * Reproduces Figure 6: breakdown of lane activity during specialized
 * execution on io+x — execute vs. stall (RAW, CIR wait, memory port,
 * LLFU, LSQ structural, commit/AMO wait) vs. idle, plus squashed
 * work, as percentages of total lane-cycles.
 */

#include "asm/assembler.h"
#include "bench_util.h"

using namespace xloops;
using namespace xloops::benchutil;

int
main()
{
    std::printf("Figure 6: specialized-execution lane cycle breakdown "
                "(io+x, %% of lane-cycles)\n\n");
    std::printf("%-14s %6s %6s %6s %6s %6s %6s %6s %6s %7s\n", "kernel",
                "exec", "raw", "cir", "mport", "llfu", "lsq", "commit",
                "idle", "squash");
    for (const auto &name : tableIIKernelNames()) {
        const Kernel &k = kernelByName(name);
        const Program prog = assemble(k.source);
        XloopsSystem sys(configs::ioX());
        sys.loadProgram(prog);
        if (k.setup)
            k.setup(sys.memory(), prog);
        sys.run(prog, ExecMode::Specialized);
        const StatGroup &s = sys.lpsuModel().stats();

        const double exec = static_cast<double>(s.get(Stat::LaneExecCycles));
        const double raw =
            static_cast<double>(s.get(Stat::LaneRawStallCycles));
        const double cir =
            static_cast<double>(s.get(Stat::LaneCirStallCycles) +
                                s.get(Stat::LaneCibStallCycles));
        const double mport =
            static_cast<double>(s.get(Stat::LaneMemportStallCycles));
        const double llfu =
            static_cast<double>(s.get(Stat::LaneLlfuStallCycles));
        const double lsq =
            static_cast<double>(s.get(Stat::LaneLsqStallCycles));
        const double commit =
            static_cast<double>(s.get(Stat::LaneCommitStallCycles) +
                                s.get(Stat::LaneAmoStallCycles));
        const double idle =
            static_cast<double>(s.get(Stat::LaneIdleCycles));
        const double squash = static_cast<double>(s.get(Stat::SquashCycles));
        const double total =
            exec + raw + cir + mport + llfu + lsq + commit + idle;
        if (total == 0)
            continue;
        auto pct = [total](double v) { return 100.0 * v / total; };
        std::printf("%-14s %5.1f%% %5.1f%% %5.1f%% %5.1f%% %5.1f%% "
                    "%5.1f%% %5.1f%% %5.1f%% %6.1f%%\n",
                    name.c_str(), pct(exec), pct(raw), pct(cir),
                    pct(mport), pct(llfu), pct(lsq), pct(commit),
                    pct(idle), pct(squash));
    }
    return 0;
}
