/**
 * @file
 * System configurations: the paper's baseline GPPs (io, ooo/2, ooo/4),
 * the XLOOPS configurations (io+x, ooo/2+x, ooo/4+x), and the Figure 9
 * design-space-exploration variants (+t multithreading, x8 lanes,
 * +r extra memports/LLFUs, +m larger LSQs).
 */

#ifndef XLOOPS_SYSTEM_CONFIG_H
#define XLOOPS_SYSTEM_CONFIG_H

#include <string>
#include <vector>

#include "cpu/gpp.h"
#include "lpsu/lpsu.h"

namespace xloops {

/** A whole-system configuration: GPP, optional LPSU, caches. */
struct SysConfig
{
    std::string name;
    GppConfig gpp;
    bool hasLpsu = false;
    LpsuConfig lpsu;
};

namespace configs {

/** Single-issue in-order GPP (paper "io"). */
SysConfig io();

/** Two-way out-of-order GPP (paper "ooo/2"). */
SysConfig ooo2();

/** Four-way out-of-order GPP (paper "ooo/4"). */
SysConfig ooo4();

/** Attach the default 4-lane LPSU ("+x"). */
SysConfig withLpsu(SysConfig base);

SysConfig ioX();
SysConfig ooo2X();
SysConfig ooo4X();

/** Figure 9 DSE points (all on the ooo/4 host). */
SysConfig ooo4X4t();    ///< 4 lanes + 2-way vertical multithreading
SysConfig ooo4X8();     ///< 8 lanes
SysConfig ooo4X8r();    ///< 8 lanes + 2x memports and LLFUs
SysConfig ooo4X8rm();   ///< 8 lanes + 2x resources + 16+16 LSQs

/** Extension ablation: cross-lane store-load forwarding with
 *  value-based violation filtering (the paper's "more aggressive
 *  implementation", Section II-D). */
SysConfig ioXf();
SysConfig ooo4Xf();

/** Extension: dual-issue in-order lanes (the paper's future-work
 *  "superscalar lane microarchitectures", Section IV-C). */
SysConfig ioX2w();
SysConfig ooo4X2w();

/** Lookup in all() by name ("io", "ooo/2+x", ...). Throws on unknown
 *  names. */
SysConfig byName(const std::string &name);

/** The six main-evaluation configurations. */
std::vector<SysConfig> mainGrid();

/** Every named configuration, in `xsim -l` order: the main grid, then
 *  the DSE points and the extensions above. */
const std::vector<SysConfig> &all();

} // namespace configs

} // namespace xloops

#endif // XLOOPS_SYSTEM_CONFIG_H
