// Energy and VLSI analytical model tests: table arithmetic, the
// paper's calibration anchors (IB 10x cheaper than I$, ~43% area
// overhead for the primary LPSU design), and end-to-end energy
// ordering between configurations.

#include <gtest/gtest.h>

#include "asm/assembler.h"
#include "energy/energy.h"
#include "system/system.h"
#include "vlsi/vlsi_model.h"

namespace xloops {
namespace {

TEST(EnergyTable, IbIsTenTimesCheaperThanIcache)
{
    const EnergyTable tbl;
    EXPECT_NEAR(tbl.icacheAccess / tbl.ibAccess, 10.0, 0.01);
}

TEST(EnergyModel, ZeroStatsZeroEnergy)
{
    EnergyModel model;
    StatGroup stats;
    const EnergyBreakdown e = model.dynamicEnergy(configs::io(), stats);
    EXPECT_DOUBLE_EQ(e.totalNj(), 0.0);
}

TEST(EnergyModel, OooCostsMorePerInstructionThanInOrder)
{
    EnergyModel model;
    StatGroup stats;
    stats.set(Stat::Insts, 1000);
    stats.set(Stat::Loads, 100);
    stats.set(Stat::Stores, 50);
    stats.set(Stat::Branches, 100);
    const double io = model.dynamicEnergy(configs::io(), stats).totalNj();
    const double o2 = model.dynamicEnergy(configs::ooo2(), stats).totalNj();
    const double o4 = model.dynamicEnergy(configs::ooo4(), stats).totalNj();
    EXPECT_GT(o2, io * 1.2);
    EXPECT_GT(o4, o2);
}

TEST(EnergyModel, LaneInstructionsCheaperThanGppInstructions)
{
    EnergyModel model;
    StatGroup gppStats;
    gppStats.set(Stat::Insts, 1000);
    StatGroup laneStats;
    laneStats.set(Stat::LaneInsts, 1000);
    const double gpp =
        model.dynamicEnergy(configs::io(), gppStats).totalNj();
    const double lane =
        model.dynamicEnergy(configs::ioX(), laneStats).totalNj();
    // The icache-vs-IB difference dominates per-instruction energy.
    EXPECT_LT(lane, gpp * 0.55);
}

TEST(EnergyModel, EndToEndSpecializedBeatsOooEfficiency)
{
    // Same kernel run on ooo/2 (GP) and ooo/2+x specialized: energy
    // per unit work must be lower when specialized (paper Fig. 8b).
    const std::string src =
        "  li r1, 0\n"
        "  li r2, 512\n"
        "  la r7, out\n"
        "body:\n"
        "  slli r8, r1, 2\n"
        "  add r9, r7, r8\n"
        "  add r10, r1, r1\n"
        "  add r10, r10, r1\n"
        "  xor r10, r10, r8\n"
        "  sw r10, 0(r9)\n"
        "  xloop.uc r1, r2, body\n"
        "  halt\n"
        "  .data\n"
        "out: .space 2048\n";
    const Program prog = assemble(src);
    EnergyModel model;

    XloopsSystem gp(configs::ooo2());
    gp.loadProgram(prog);
    const SysResult gpRes = gp.run(prog, ExecMode::Traditional);
    const double gpNj =
        model.dynamicEnergy(configs::ooo2(), gpRes.stats).totalNj();

    XloopsSystem sp(configs::ooo2X());
    sp.loadProgram(prog);
    const SysResult spRes = sp.run(prog, ExecMode::Specialized);
    const double spNj =
        model.dynamicEnergy(configs::ooo2X(), spRes.stats).totalNj();

    EXPECT_LT(spNj, gpNj);
    EXPECT_GT(EnergyModel::relativeEfficiency(gpNj, spNj), 1.2);
}

TEST(Vlsi, PrimaryDesignMatchesTableVAnchors)
{
    const VlsiEstimate primary = vlsiEstimate(4, 128);
    // Paper: lpsu+i128+ln4 total 0.36 mm^2, 43% larger than the
    // 0.25 mm^2 scalar GPP, cycle time ~2.14 ns.
    EXPECT_NEAR(primary.totalAreaMm2, 0.36, 0.01);
    EXPECT_NEAR(primary.areaOverhead, 0.43, 0.03);
    EXPECT_NEAR(primary.cycleTimeNs, 2.14, 0.03);
}

TEST(Vlsi, AreaGrowsLinearlyWithLanes)
{
    const double a2 = vlsiEstimate(2, 128).totalAreaMm2;
    const double a4 = vlsiEstimate(4, 128).totalAreaMm2;
    const double a6 = vlsiEstimate(6, 128).totalAreaMm2;
    const double a8 = vlsiEstimate(8, 128).totalAreaMm2;
    EXPECT_NEAR(a4 - a2, a6 - a4, 1e-9);
    EXPECT_NEAR(a6 - a4, a8 - a6, 1e-9);
    // Paper's endpoints: 0.31 (ln2) .. ~0.44-0.46 (ln8).
    EXPECT_NEAR(a2, 0.31, 0.01);
    EXPECT_NEAR(a8, 0.45, 0.02);
}

TEST(Vlsi, IbSizeHasWeakAreaEffect)
{
    const double i96 = vlsiEstimate(4, 96).totalAreaMm2;
    const double i192 = vlsiEstimate(4, 192).totalAreaMm2;
    // Paper: 0.35 -> 0.37 over a 2x IB range (41-48% overhead).
    EXPECT_NEAR(i96, 0.35, 0.01);
    EXPECT_NEAR(i192, 0.37, 0.01);
    const double over96 = vlsiEstimate(4, 96).areaOverhead;
    const double over192 = vlsiEstimate(4, 192).areaOverhead;
    EXPECT_GT(over96, 0.38);
    EXPECT_LT(over192, 0.50);
}

TEST(Vlsi, CycleTimeGrowsWithLanes)
{
    EXPECT_LT(vlsiEstimate(2, 128).cycleTimeNs,
              vlsiEstimate(8, 128).cycleTimeNs);
    EXPECT_NEAR(vlsiEstimate(2, 128).cycleTimeNs, 1.98, 0.03);
}

TEST(Vlsi, TableVSweepHasSevenRows)
{
    const auto rows = tableVSweep();
    EXPECT_EQ(rows.size(), 7u);
    EXPECT_EQ(rows[1].name, "lpsu+i128+ln4");
}

} // namespace
} // namespace xloops
