#include "system/run_spec.h"

#include "common/cli.h"
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

namespace {

// The two flags the post-parse step asks about.
constexpr const char *rateFlag = "--inject-rate";
constexpr const char *watchdogFlag = "--watchdog-cycles";

} // namespace

std::vector<cli::Flag>
runSpecFlags(RunSpec &spec)
{
    return {
        cli::option("-k", "<kernel>",
                    "run a registered kernel (xsim -l lists them)",
                    spec.kernel),
        cli::option("-c", "<config>",
                    "system configuration (default io+x; xsim -l lists "
                    "them)",
                    spec.config),
        cli::option("-m", "<T|S|A>", "execution mode (default S)",
                    spec.mode),
        cli::option("--inject-seed", "<n>",
                    "enable fault injection with RNG seed n",
                    spec.injectSeed),
        cli::option(rateFlag, "<p>",
                    strf("per-opportunity fault probability (default ",
                         defaultInjectRate, " with a seed)"),
                    spec.injectRate),
        cli::option("--inject-arch-rate", "<p>",
                    "architectural hand-back corruption probability "
                    "(needs a seed; exercises the lockstep checker)",
                    spec.injectArchRate),
        cli::option(watchdogFlag, "<n>",
                    "LPSU no-commit watchdog (0 disables)",
                    spec.watchdogCycles),
        cli::toggle("--lockstep",
                    "differential lockstep verification against the "
                    "golden functional model",
                    spec.lockstep),
    };
}

void
finishRunSpecFlags(RunSpec &spec, const cli::Parsed &parsed)
{
    spec.haveWatchdog = parsed.has(watchdogFlag);
    if (spec.injectSeed != 0 && !parsed.has(rateFlag))
        spec.injectRate = defaultInjectRate;
}

} // namespace xloops
