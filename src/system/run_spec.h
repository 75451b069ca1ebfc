/**
 * @file
 * One simulator run, as every driver names it: a kernel on a
 * configuration under a mode, with its valves, fault seeds, watchdog
 * and lockstep. xsim flags, "xloops-job-1" service submissions
 * (docs/SERVICE.md), fuzz-harness runs and replay capsules all describe
 * a run with this one struct, and sysConfig() is the only place its
 * knobs become a SysConfig — so the configuration a run executes and
 * the one its capsule records are the same value.
 *
 * A run with no kernel is an `xsim prog.s` program-file run (or a fuzz
 * case): everything but the kernel name still applies.
 *
 * Its command-line spelling is declared here too, next to the
 * "xloops-job-1" codec: runSpecFlags() is the one definition of the
 * flags xsim and xloopsc share.
 */

#ifndef XLOOPS_SYSTEM_RUN_SPEC_H
#define XLOOPS_SYSTEM_RUN_SPEC_H

#include <string>
#include <vector>

#include "common/types.h"
#include "system/config.h"

namespace xloops {

class JsonWriter;
class JsonValue;

namespace cli {
struct Flag;
struct Parsed;
} // namespace cli

/** The fault probability of a command-line run that names
 *  --inject-seed without --inject-rate (docs/ROBUSTNESS.md). */
constexpr double defaultInjectRate = 0.02;

/** Everything that selects what one run simulates. */
struct RunSpec
{
    std::string kernel;          ///< registered kernel name ("" = file)
    std::string config = "io+x"; ///< configuration name (configs::byName)
    std::string mode = "S";      ///< T, S, or A
    bool gpBinary = false;       ///< run the serialized GP-ISA binary

    /** Instruction valve (quota; trips as InstLimit). */
    u64 maxInsts = 500'000'000;

    /** Service wall-clock watchdog in ms; 0 = the server default. */
    u64 deadlineMs = 0;

    /** Fault injection: off unless injectSeed is nonzero. */
    u64 injectSeed = 0;
    double injectRate = 0.0;
    double injectArchRate = 0.0;

    /** LPSU no-commit watchdog override (cycles; only when have set). */
    bool haveWatchdog = false;
    u64 watchdogCycles = 0;

    /** Differential lockstep verification (divergences capsule). */
    bool lockstep = false;

    /** Service retry budget override; negative = the server default. */
    int maxRetries = -1;

    /**
     * Validate names and knob combinations without running anything;
     * returns false with a reason for specs that cannot run (unknown
     * kernel/config, bad mode, arch corruption without a seed, GP
     * binary outside mode T). An empty kernel is a program-file run
     * and passes.
     */
    bool validate(std::string &why) const;

    /** The named configuration with this spec's fault and watchdog
     *  knobs applied. */
    SysConfig sysConfig() const;

    /** Emit the "job" object fields (inverse of runSpecFromJson). */
    void toJson(JsonWriter &w) const;
};

/** Parse a "job" object; throws FatalError on malformed documents. */
RunSpec runSpecFromJson(const JsonValue &v);

/**
 * The command-line rows that name a run: -k -c -m --inject-seed
 * --inject-rate --inject-arch-rate --watchdog-cycles --lockstep. They
 * write into @p spec, which must outlive the parse.
 */
std::vector<cli::Flag> runSpecFlags(RunSpec &spec);

/** After the parse: haveWatchdog records whether --watchdog-cycles
 *  was given, and a seed given without a rate gets
 *  defaultInjectRate. */
void finishRunSpecFlags(RunSpec &spec, const cli::Parsed &parsed);

} // namespace xloops

#endif // XLOOPS_SYSTEM_RUN_SPEC_H
