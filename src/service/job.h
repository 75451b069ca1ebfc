/**
 * @file
 * The service job model: what a client asks the daemon to simulate
 * (a RunSpec, system/run_spec.h), what it gets back (JobOutcome), and
 * the outcome half of the "xloops-job-1" / "xloops-result-1" wire
 * protocol (see docs/SERVICE.md and service/protocol.h).
 *
 * A job is the same RunSpec one `xsim -k` run parses its flags into,
 * so anything reproducible from the CLI is submittable as a job and
 * vice versa: a failed job's capsule replays with plain
 * `xsim --replay`.
 */

#ifndef XLOOPS_SERVICE_JOB_H
#define XLOOPS_SERVICE_JOB_H

#include <string>

#include "common/types.h"
#include "system/run_spec.h"

namespace xloops {

/** The earlier name of RunSpec, kept for clients that still use it. */
using JobSpec = RunSpec;

/** Terminal and in-flight states of a submitted job. */
enum class JobStatus
{
    Queued,     ///< admitted, waiting for a worker
    Running,    ///< on a worker (includes retry backoff waits)
    Done,       ///< validated result available
    Failed,     ///< checker failure or fatal/exhausted SimError
    Cancelled,  ///< cancelled while queued (client request or drain)
};

const char *jobStatusName(JobStatus status);

/** Everything the daemon reports back about one job. */
struct JobOutcome
{
    u64 jobId = 0;
    JobStatus status = JobStatus::Queued;
    unsigned attempts = 0;      ///< run attempts actually made
    bool cached = false;        ///< served from the result cache
    std::string error;          ///< failure message (empty on success)
    std::string errorKind;      ///< simErrorKindName, or "checker"
    std::string capsulePath;    ///< artifact path when the job capsuled
    std::string capsule;        ///< that artifact's document
    Cycle cycles = 0;
    u64 gppInsts = 0;
    std::string statsJson;      ///< canonical "xloops-stats-1" document

    /** Span timings: where this job's wall-clock latency went (also
     *  emitted as SVC trace slices — docs/OBSERVABILITY.md §6.2).
     *  simUs sums every attempt, so (simUs, attempts, cached) answer
     *  "why was this job slow" from the reply alone. */
    u64 queueWaitUs = 0;        ///< admission -> worker pickup
    u64 cacheLookupUs = 0;      ///< result-cache probe
    u64 simUs = 0;              ///< total time simulating, all attempts

    bool
    terminal() const
    {
        return status == JobStatus::Done || status == JobStatus::Failed ||
               status == JobStatus::Cancelled;
    }
};

} // namespace xloops

#endif // XLOOPS_SERVICE_JOB_H
