/**
 * @file
 * Reproduces Figure 10: energy efficiency vs. performance of
 * specialized execution of the uc kernels relative to the scalar GPP,
 * at the VLSI level. The key RTL result is that an LPSU instruction
 * buffer access is ~10x cheaper than an instruction cache access, so
 * loop-resident execution saves substantial fetch energy (paper
 * Section V-C: speedups 2.4-4x, efficiency gains 1.6-2.1x).
 *
 * Substitution note: the paper's RTL lacked xi support and recompiled
 * without LSR; our kernels keep xi (the cycle-level ISA), which the
 * paper shows mainly affects sgemm. Documented in EXPERIMENTS.md.
 */

#include "bench_util.h"
#include "compiler/codegen.h"

using namespace xloops;
using namespace xloops::benchutil;

namespace {

/** Compile a saxpy-like uc kernel with/without loop strength
 *  reduction and report specialized cycles on io+x — the paper's
 *  no-xi RTL artifact, reproduced through the compiler. */
void
noXiStudy()
{
    std::printf("\nno-xi study (compiled saxpy, io+x specialized):\n");
    for (const bool lsr : {true, false}) {
        CodeGen cg;
        cg.lsrEnabled(lsr);
        cg.declareArray("x", 256);
        cg.declareArray("y", 256);
        Loop init;
        init.iv = "i";
        init.lower = cst(0);
        init.upper = cst(256);
        init.body.push_back(store("x", var("i"), var("i")));
        init.body.push_back(store("y", var("i"), mul(var("i"), cst(2))));
        Loop compute;
        compute.iv = "i";
        compute.lower = cst(0);
        compute.upper = cst(256);
        compute.pragma = Pragma::Unordered;
        compute.body.push_back(store(
            "y", var("i"),
            add(mul(ld("x", var("i")), cst(7)), ld("y", var("i")))));
        const Program prog =
            cg.compileToProgram({nested(init), nested(compute)});
        XloopsSystem sys(configs::ioX());
        sys.loadProgram(prog);
        const SysResult res = sys.run(prog, ExecMode::Specialized);
        std::printf("  %-10s %8llu cycles, %llu lane insts\n",
                    lsr ? "with xi" : "no xi (RTL)",
                    static_cast<unsigned long long>(res.cycles),
                    static_cast<unsigned long long>(res.laneInsts));
    }
    std::printf("  (the paper's RTL lacked xi support and saw sgemm "
                "slow down for this reason)\n");
}

} // namespace

int
main()
{
    const std::vector<std::string> kernels = {
        "rgb2cmyk-uc", "sgemm-uc", "ssearch-uc", "symm-uc", "viterbi-uc",
        "war-uc"};

    std::printf("Figure 10: VLSI energy efficiency vs performance "
                "(uc kernels, io+x vs io)\n\n");
    std::printf("%-14s %9s %12s %14s %14s\n", "kernel", "speedup",
                "energy eff", "ifetch nJ gp", "ifetch nJ lpsu");
    const EnergyModel model;
    for (const auto &name : kernels) {
        const Cell g = gpBaseline(name, configs::io());
        const Cell s = runCell(name, configs::ioX(),
                               ExecMode::Specialized);
        // Instruction-fetch energy split: GPP insts fetch from the
        // icache, lane insts from the (10x cheaper) IB.
        const double gpFetch = static_cast<double>(g.stats.get(Stat::Insts)) *
                               model.table().icacheAccess / 1000.0;
        const double lpsuFetch =
            (static_cast<double>(s.stats.get(Stat::Insts)) *
                 model.table().icacheAccess +
             static_cast<double>(s.stats.get(Stat::LaneInsts)) *
                 model.table().ibAccess) /
            1000.0;
        std::printf("%-14s %9.2f %12.2f %14.1f %14.1f\n", name.c_str(),
                    ratio(g.cycles, s.cycles),
                    s.energyNj > 0 ? g.energyNj / s.energyNj : 0.0,
                    gpFetch, lpsuFetch);
    }
    noXiStudy();
    return 0;
}
