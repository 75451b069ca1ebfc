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
    u64 xlDynInsts = 0;      ///< dynamic instructions of the binary
                             ///< run (XLOOPS or GP-ISA) under serial
                             ///< semantics
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
 * The immutable artefacts of one (registry kernel, binary) pair:
 * everything about a kernel run that depends on the binary alone.
 * Every cell that runs the binary reads the same image; only the
 * per-run state (memory, timing run, comparison, semantic check)
 * belongs to the cell.
 */
struct KernelImage
{
    Program program;      ///< assembled, with decoded() already built
    u64 goldenInsts = 0;  ///< the serial golden model's dynamic insts

    /** The golden model's final words of each Kernel::outputs
     *  region, in the order of Kernel::outputs. */
    std::vector<std::vector<u32>> goldenOutputs;
};

/**
 * The image of @p kernel's XLOOPS binary, or of its serialized GP-ISA
 * twin when @p gpIsaBinary. Built on first use (assemble, predecode,
 * set up a fresh memory image, run the serial golden model, keep the
 * output words) under a per-image std::call_once, and kept unchanged
 * for the life of the process, so concurrent callers share it
 * without locking. A build that throws leaves the image unbuilt for
 * the next caller. @p kernel must be an entry of kernelRegistry();
 * any other Kernel is a panic.
 */
const KernelImage &kernelImage(const Kernel &kernel,
                               bool gpIsaBinary = false);

/**
 * Validate @p mem, the final memory image of a run of @p image's
 * program, against the serial golden model: when @p kernel is
 * deterministic, compare its output regions word for word with the
 * golden words @p image holds, then apply its semantic check.
 * @p image must be kernelImage(@p kernel, ...). Returns an empty
 * string when @p mem validates, else the first mismatch.
 */
std::string checkAgainstGolden(const Kernel &kernel,
                               const KernelImage &image, MainMemory &mem);

/**
 * Set up, run, and validate @p kernel on its image: each call builds
 * its own system and input memory, runs it, and checks the result
 * against the image's golden words. KernelRun::xlDynInsts is the
 * image's golden count.
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
