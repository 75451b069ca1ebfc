/**
 * @file
 * Divergence / replay capsules (schema "xloops-capsule-1").
 *
 * When a run dies with a SimError — a lockstep divergence, a watchdog
 * firing, a limit valve — the driver packages everything needed to
 * re-execute it into one self-contained file: the exact program image,
 * the initial memory image (program plus kernel input data), the
 * configuration / mode / fault-seed knobs, the structured error (with
 * the DivergenceInfo payload when there is one), and the nearest
 * checkpoint taken before the failure. `xsim --replay capsule.json`
 * re-executes deterministically, verifies the error reproduces
 * *identically* (same site, loop pc, iteration, register/address),
 * re-verifies it from the embedded checkpoint, and then bisects over
 * checkpoints taken during the replay to hand back the tightest
 * [checkpoint, failure] window around the first divergent iteration.
 */

#ifndef XLOOPS_SYSTEM_CAPSULE_H
#define XLOOPS_SYSTEM_CAPSULE_H

#include <string>

#include "asm/program.h"
#include "mem/memory.h"
#include "system/run_spec.h"

namespace xloops {

class SimError;

/** Captured at run time so a capsule can be written if the run dies:
 *  the exact image executed and the initial memory it started from. */
struct CapsuleContext
{
    bool valid = false;        ///< program/initialMem were captured
    Program program;
    MainMemory initialMem;     ///< after program load + kernel setup
    std::string lastCheckpoint;  ///< nearest prior checkpoint (or "")
    u64 lastCheckpointInst = 0;
};

/** Write @p error and the run that raised it as a capsule at @p path.
 *  @p spec is the RunSpec the run was built from; a run without a
 *  kernel (a program file, a fuzz case) is labelled @p workload.
 *  @p flightJson, when non-empty, is an "xloops-flight-1" document
 *  (the service flight recorder's dump) embedded under "flight" so a
 *  daemon-produced capsule carries the fleet context that led up to
 *  the failure. */
void writeCapsule(const std::string &path, const RunSpec &spec,
                  const CapsuleContext &ctx, const SimError &error,
                  const std::string &workload = "",
                  const std::string &flightJson = "");

/**
 * Replay the capsule at @p path: re-execute, verify the recorded
 * error reproduces identically, re-verify from the embedded
 * checkpoint, bisect. Prints a "replay:" report; returns the process
 * exit code (0 reproduced identically, 2 any mismatch).
 */
int replayCapsule(const std::string &path);

} // namespace xloops

#endif // XLOOPS_SYSTEM_CAPSULE_H
