#include "energy/energy.h"

namespace xloops {

EnergyBreakdown
EnergyModel::dynamicEnergy(const SysConfig &cfg,
                           const StatGroup &stats) const
{
    EnergyBreakdown out;

    // --- GPP -------------------------------------------------------------
    const double insts = static_cast<double>(stats.get(Stat::Insts));
    const double loads = static_cast<double>(stats.get(Stat::Loads));
    const double stores = static_cast<double>(stats.get(Stat::Stores));
    const double amos = static_cast<double>(stats.get(Stat::Amos));
    const double branches = static_cast<double>(stats.get(Stat::Branches));
    const double llfuOps = static_cast<double>(stats.get(Stat::LlfuOps));

    double gpp = 0;
    gpp += insts * (tbl.icacheAccess + tbl.decode + 2 * tbl.rfRead +
                    tbl.rfWrite + tbl.alu);
    gpp += (loads + stores + amos) * tbl.dcacheAccess;
    gpp += amos * tbl.amoExtra;
    gpp += llfuOps * (tbl.llfuOp - tbl.alu);

    if (cfg.gpp.kind == GppConfig::Kind::OutOfOrder) {
        // Width scaling: wider machines have larger rename/IQ/ROB
        // structures (CAM/selection energy grows with width).
        const double widthScale = cfg.gpp.width == 2 ? 1.0 : 1.5;
        gpp += insts * widthScale *
               (tbl.renameOp + tbl.iqOp + tbl.robOp);
        gpp += branches * tbl.bpredAccess;
        gpp += (loads + stores) * tbl.lsqOp;
    }
    out.gppNj = gpp / 1000.0;

    // --- LPSU -------------------------------------------------------------
    const double laneInsts = static_cast<double>(stats.get(Stat::LaneInsts));
    const double laneMem =
        static_cast<double>(stats.get(Stat::LaneMemAccesses));
    const double lsqOps = static_cast<double>(
        stats.get(Stat::LsqLoads) + stats.get(Stat::LsqStores) +
        stats.get(Stat::LsqDrainStores));
    const double cibOps = static_cast<double>(stats.get(Stat::CibPushes) +
                                              stats.get(Stat::CibConsumes));
    const double mivs = static_cast<double>(stats.get(Stat::MivFixups));
    const double scanWrites =
        static_cast<double>(stats.get(Stat::ScanInstWrites));
    const double scanRenames =
        static_cast<double>(stats.get(Stat::ScanRenames));
    const double scanLiveins =
        static_cast<double>(stats.get(Stat::ScanLiveinWrites));

    double lpsu = 0;
    lpsu += laneInsts * (tbl.ibAccess + tbl.decode + 2 * tbl.rfRead +
                         tbl.rfWrite + tbl.alu);
    lpsu += laneMem * tbl.dcacheAccess;
    lpsu += lsqOps * tbl.lsqOp;
    lpsu += cibOps * tbl.cibOp;
    lpsu += mivs * tbl.mivMul;
    // One-time renaming during the scan, amortized over all
    // iterations (paper Section II-D).
    lpsu += scanWrites * tbl.scanWrite + scanRenames * tbl.renameOp +
            scanLiveins * tbl.rfWrite;
    lpsu *= 1.0 + tbl.lmuOverheadFrac;
    out.lpsuNj = lpsu / 1000.0;

    return out;
}

} // namespace xloops
