/**
 * @file
 * Application-kernel framework for the Table II / Table IV workloads.
 *
 * Each kernel bundles: XLOOPS assembly, a deterministic input
 * generator, the output regions to validate, and (for kernels whose
 * uc/db semantics allow non-serial-equivalent yet correct results) a
 * semantic checker. The serial general-purpose-ISA binary the paper
 * normalizes against is derived mechanically from the same source:
 * xloop becomes addi+blt and xi becomes a plain add — exactly the
 * paper's traditional-execution decode, expressed ahead of time.
 */

#ifndef XLOOPS_KERNELS_KERNEL_H
#define XLOOPS_KERNELS_KERNEL_H

#include <functional>
#include <string>
#include <vector>

#include "asm/program.h"
#include "mem/memory.h"
#include "system/system.h"

namespace xloops {

/** One benchmark kernel. */
struct Kernel
{
    std::string name;       ///< e.g. "rgb2cmyk-uc"
    std::string suite;      ///< Po, M, P, C (paper Table II)
    std::string patterns;   ///< "uc", "or,uc", ...
    std::string source;     ///< XLOOPS assembly

    /** Write input data (deterministic) into memory. */
    std::function<void(MainMemory &, const Program &)> setup;

    /** Output regions compared word-for-word against the serial
     *  golden run (used when deterministic). */
    std::vector<std::pair<std::string, unsigned>> outputs;

    /** True when any valid parallel execution must equal the serial
     *  memory image (om/orm and race-free or/uc kernels). */
    bool deterministic = true;

    /** Optional semantic validity check (sortedness, histogram
     *  totals, shortest-path distances, ...). */
    std::function<bool(MainMemory &, const Program &, std::string &)>
        check;
};

/** All Table II kernels plus the Table IV case-study variants. */
const std::vector<Kernel> &kernelRegistry();

/** Lookup by name; throws FatalError when unknown. */
const Kernel &kernelByName(const std::string &name);

/** The 25 Table II kernels (no -opt / transformed variants). */
std::vector<std::string> tableIIKernelNames();

/**
 * Derive the serial GP-ISA source: each xloop becomes
 * "addi rIdx, rIdx, 1; blt rIdx, rBound, L" and each xi becomes a
 * plain add. This is the baseline binary Table II normalizes to.
 */
std::string serializeToGpIsa(const std::string &source);

/** Outcome of one kernel execution. */
struct KernelRun
{
    SysResult result;
    u64 gpDynInsts = 0;      ///< dynamic instructions of the GP binary
    u64 xlDynInsts = 0;      ///< dynamic instructions of the XLOOPS
                             ///< binary under serial semantics
    bool passed = false;
    std::string error;
};

/** Observers threaded into the system a kernel run constructs
 *  internally (all optional; see XloopsSystem::setObserver). */
struct RunHooks
{
    Tracer *tracer = nullptr;         ///< structured event trace
    LoopProfiler *profiler = nullptr; ///< per-loop rollups

    /** Robustness options (lockstep / checkpoint / restore / capsule
     *  context) forwarded to the internally built system's run(). */
    const RunOptions *runOptions = nullptr;

    /** Instruction valve forwarded to the system run (sweeps tighten
     *  it per cell; a trip surfaces as SimError(InstLimit)). */
    u64 maxInsts = 500'000'000;
};

/**
 * Assemble, set up, run, and validate @p kernel.
 *
 * @param useGpIsaBinary run the serialized GP-ISA binary instead
 *                       (mode must be Traditional)
 * @param hooks observers attached to the internally built system
 */
KernelRun runKernel(const Kernel &kernel, const SysConfig &cfg,
                    ExecMode mode, bool useGpIsaBinary = false,
                    const RunHooks &hooks = {});

} // namespace xloops

#endif // XLOOPS_KERNELS_KERNEL_H
