#include "system/run_spec.h"

#include "common/fault.h"
#include "common/json.h"
#include "common/log.h"
#include "common/serialize.h"
#include "kernels/kernel.h"

namespace xloops {

bool
RunSpec::validate(std::string &why) const
{
    try {
        if (!kernel.empty())
            kernelByName(kernel);
        configs::byName(config);
        execModeByName(mode);
    } catch (const FatalError &err) {
        why = err.what();
        return false;
    }
    if (gpBinary && mode != "T") {
        why = "the GP-ISA binary only runs in mode T";
        return false;
    }
    if (mode != "T" && !configs::byName(config).hasLpsu) {
        why = "mode " + mode + " needs an LPSU (+x config)";
        return false;
    }
    if (injectArchRate > 0.0 && injectSeed == 0) {
        why = "inject_arch_rate needs a nonzero inject_seed";
        return false;
    }
    if (maxInsts == 0) {
        why = "max_insts must be nonzero";
        return false;
    }
    return true;
}

SysConfig
RunSpec::sysConfig() const
{
    SysConfig cfg = configs::byName(config);
    if (injectSeed != 0) {
        cfg.lpsu.faults = FaultConfig::uniform(injectSeed, injectRate);
        cfg.lpsu.faults.archCorruptRate = injectArchRate;
    }
    if (haveWatchdog)
        cfg.lpsu.watchdogCycles = watchdogCycles;
    return cfg;
}

void
RunSpec::toJson(JsonWriter &w) const
{
    w.field("kernel", kernel);
    w.field("config", config);
    w.field("mode", mode);
    w.field("gp_binary", gpBinary);
    w.field("max_insts", maxInsts);
    w.field("deadline_ms", deadlineMs);
    w.field("inject_seed", injectSeed);
    // Rates round-trip bit-exactly: they feed the fault RNG schedule
    // and the result-cache key, where "close" is not "equal".
    w.field("inject_rate_bits", doubleBits(injectRate));
    w.field("inject_arch_rate_bits", doubleBits(injectArchRate));
    w.field("have_watchdog", haveWatchdog);
    w.field("watchdog_cycles", watchdogCycles);
    w.field("lockstep", lockstep);
    w.field("max_retries", maxRetries);
}

RunSpec
runSpecFromJson(const JsonValue &v)
{
    RunSpec s;
    s.kernel = v.at("kernel").asString();
    if (v.has("config"))
        s.config = v.at("config").asString();
    if (v.has("mode"))
        s.mode = v.at("mode").asString();
    if (v.has("gp_binary"))
        s.gpBinary = v.at("gp_binary").asBool();
    s.maxInsts = v.getU64("max_insts", s.maxInsts);
    s.deadlineMs = v.getU64("deadline_ms", 0);
    s.injectSeed = v.getU64("inject_seed", 0);
    if (v.has("inject_rate_bits"))
        s.injectRate = doubleFromBits(v.at("inject_rate_bits").asString());
    if (v.has("inject_arch_rate_bits"))
        s.injectArchRate =
            doubleFromBits(v.at("inject_arch_rate_bits").asString());
    if (v.has("have_watchdog"))
        s.haveWatchdog = v.at("have_watchdog").asBool();
    s.watchdogCycles = v.getU64("watchdog_cycles", 0);
    if (v.has("lockstep"))
        s.lockstep = v.at("lockstep").asBool();
    if (v.has("max_retries"))
        s.maxRetries = static_cast<int>(v.at("max_retries").asI64());
    return s;
}

} // namespace xloops
