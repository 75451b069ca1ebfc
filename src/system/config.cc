#include "system/config.h"

#include "common/log.h"

namespace xloops {
namespace configs {

SysConfig
io()
{
    SysConfig cfg;
    cfg.name = "io";
    cfg.gpp.kind = GppConfig::Kind::InOrder;
    cfg.gpp.width = 1;
    cfg.gpp.branchPenalty = 2;
    return cfg;
}

SysConfig
ooo2()
{
    SysConfig cfg;
    cfg.name = "ooo/2";
    cfg.gpp.kind = GppConfig::Kind::OutOfOrder;
    cfg.gpp.width = 2;
    cfg.gpp.robSize = 64;
    cfg.gpp.iqSize = 32;
    cfg.gpp.lsqEntries = 16;
    cfg.gpp.memPorts = 1;
    cfg.gpp.branchPenalty = 10;
    return cfg;
}

SysConfig
ooo4()
{
    SysConfig cfg;
    cfg.name = "ooo/4";
    cfg.gpp.kind = GppConfig::Kind::OutOfOrder;
    cfg.gpp.width = 4;
    cfg.gpp.robSize = 128;
    cfg.gpp.iqSize = 64;
    cfg.gpp.lsqEntries = 32;
    cfg.gpp.memPorts = 2;
    cfg.gpp.branchPenalty = 10;
    return cfg;
}

SysConfig
withLpsu(SysConfig base)
{
    base.name += "+x";
    base.hasLpsu = true;
    base.lpsu = LpsuConfig{};
    return base;
}

SysConfig ioX() { return withLpsu(io()); }
SysConfig ooo2X() { return withLpsu(ooo2()); }
SysConfig ooo4X() { return withLpsu(ooo4()); }

SysConfig
ooo4X4t()
{
    SysConfig cfg = ooo4X();
    cfg.name = "ooo/4+x4+t";
    cfg.lpsu.multithreading = true;
    return cfg;
}

SysConfig
ooo4X8()
{
    SysConfig cfg = ooo4X();
    cfg.name = "ooo/4+x8";
    cfg.lpsu.lanes = 8;
    return cfg;
}

SysConfig
ooo4X8r()
{
    SysConfig cfg = ooo4X8();
    cfg.name = "ooo/4+x8+r";
    cfg.lpsu.memPorts = 2;
    cfg.lpsu.llfus = 2;
    return cfg;
}

SysConfig
ooo4X8rm()
{
    SysConfig cfg = ooo4X8r();
    cfg.name = "ooo/4+x8+r+m";
    cfg.lpsu.lsqLoadEntries = 16;
    cfg.lpsu.lsqStoreEntries = 16;
    return cfg;
}

SysConfig
ioXf()
{
    SysConfig cfg = ioX();
    cfg.name = "io+xf";
    cfg.lpsu.interLaneForwarding = true;
    return cfg;
}

SysConfig
ooo4Xf()
{
    SysConfig cfg = ooo4X();
    cfg.name = "ooo/4+xf";
    cfg.lpsu.interLaneForwarding = true;
    return cfg;
}

SysConfig
ioX2w()
{
    SysConfig cfg = ioX();
    cfg.name = "io+x2w";
    cfg.lpsu.laneIssueWidth = 2;
    return cfg;
}

SysConfig
ooo4X2w()
{
    SysConfig cfg = ooo4X();
    cfg.name = "ooo/4+x2w";
    cfg.lpsu.laneIssueWidth = 2;
    return cfg;
}

SysConfig
byName(const std::string &name)
{
    for (const SysConfig &cfg : all())
        if (cfg.name == name)
            return cfg;
    fatal(strf("unknown system configuration '", name, "'"));
}

std::vector<SysConfig>
mainGrid()
{
    return {io(), ooo2(), ooo4(), ioX(), ooo2X(), ooo4X()};
}

const std::vector<SysConfig> &
all()
{
    static const std::vector<SysConfig> table = [] {
        std::vector<SysConfig> cfgs = mainGrid();
        cfgs.insert(cfgs.end(), {ooo4X4t(), ooo4X8(), ooo4X8r(), ooo4X8rm(),
                                 ioXf(), ooo4Xf(), ioX2w(), ooo4X2w()});
        return cfgs;
    }();
    return table;
}

} // namespace configs
} // namespace xloops
