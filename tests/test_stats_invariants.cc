// Accounting invariants: the Figure 6 breakdown is trustworthy only
// if every lane-cycle is attributed to exactly one category, so for
// every kernel the category counters must sum to lanes x LPSU cycles.

#include <gtest/gtest.h>

#include "asm/assembler.h"
#include "energy/energy.h"
#include "kernels/kernel.h"

namespace xloops {
namespace {

class LaneAccounting : public ::testing::TestWithParam<std::string>
{
};

TEST_P(LaneAccounting, EveryLaneCycleAttributedOnce)
{
    const Kernel &k = kernelByName(GetParam());
    const SysConfig cfg = configs::ioX();
    const Program prog = assemble(k.source);
    XloopsSystem sys(cfg);
    sys.loadProgram(prog);
    if (k.setup)
        k.setup(sys.memory(), prog);
    sys.run(prog, ExecMode::Specialized);

    const StatGroup &s = sys.lpsuModel().stats();
    const u64 attributed =
        s.get(Stat::LaneExecCycles) + s.get(Stat::LaneRawStallCycles) +
        s.get(Stat::LaneCirStallCycles) + s.get(Stat::LaneCibStallCycles) +
        s.get(Stat::LaneMemportStallCycles) +
        s.get(Stat::LaneLlfuStallCycles) + s.get(Stat::LaneLsqStallCycles) +
        s.get(Stat::LaneCommitStallCycles) +
        s.get(Stat::LaneAmoStallCycles) + s.get(Stat::LaneIdleCycles) +
        s.get(Stat::LaneOtherStallCycles);
    const u64 laneCycles = cfg.lpsu.lanes * s.get(Stat::LpsuExecCycles);
    EXPECT_EQ(attributed, laneCycles);

    // Iterations executed = committed iterations (plus any squashed
    // re-executions, which are counted separately).
    EXPECT_GE(s.get(Stat::IdqPops), s.get(Stat::Iterations));
}

std::string
nameOf(const ::testing::TestParamInfo<std::string> &info)
{
    std::string s = info.param;
    for (auto &c : s)
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return s;
}

INSTANTIATE_TEST_SUITE_P(TableII, LaneAccounting,
                         ::testing::ValuesIn(tableIIKernelNames()),
                         nameOf);

TEST(EnergyAccounting, LpsuEnergyScalesWithLaneWork)
{
    // Sanity: a kernel with 4x the lane instructions consumes about
    // 4x the LPSU energy under the same configuration.
    const EnergyModel model;
    StatGroup small;
    small.set(Stat::LaneInsts, 1000);
    StatGroup big;
    big.set(Stat::LaneInsts, 4000);
    const double e1 =
        model.dynamicEnergy(configs::ioX(), small).lpsuNj;
    const double e4 = model.dynamicEnergy(configs::ioX(), big).lpsuNj;
    EXPECT_NEAR(e4 / e1, 4.0, 0.01);
}

} // namespace
} // namespace xloops
