/**
 * @file
 * The job supervisor: admission control, worker dispatch, per-job
 * quotas, retry with backoff, crash isolation, and the result cache —
 * everything between "a RunSpec arrived" and "a terminal JobOutcome
 * exists", independent of any socket (the daemon wires a server in
 * front of it; tests drive it directly).
 *
 * Lifecycle of a job:
 *
 *   submit() validates the spec, allocates an id, and offers it to
 *   the bounded queue — a full queue sheds the job immediately (it
 *   never becomes a record). A worker picks it up, checks the
 *   content-addressed result cache (hit = Done without simulating,
 *   byte-identical to a cold run), and otherwise runs the kernel
 *   under the job's instruction valve, wall-clock deadline (enforced
 *   by a watchdog thread through the run's cooperative stop flag),
 *   and fault knobs. Retryable SimErrors re-run after exponential
 *   backoff with jitter under a re-derived fault seed; fatal or
 *   exhausted failures are packaged as replay capsules in the
 *   artifact directory, and the outcome carries the capsule document.
 *   drain() closes admission, cancels the backlog, and finishes the
 *   jobs already running. wait() hands out the terminal outcome and
 *   forgets the job, so the supervisor holds only live jobs.
 *
 * Thread safety: every public method may be called from any thread.
 */

#ifndef XLOOPS_SERVICE_SUPERVISOR_H
#define XLOOPS_SERVICE_SUPERVISOR_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/flight.h"
#include "common/trace.h"
#include "service/cache.h"
#include "service/job.h"
#include "service/journal.h"
#include "service/queue.h"
#include "service/retry.h"

namespace xloops {

/** Server-wide supervisor knobs (see tools/xloopsd.cc flags). */
struct SupervisorConfig
{
    unsigned workers = 0;      ///< 0 = hardware concurrency
    size_t queueDepth = 64;    ///< admission bound (beyond = shed)
    RetryPolicy retry;         ///< server-wide retry/backoff bounds
    u64 defaultDeadlineMs = 30'000;  ///< jobs may set their own
    std::string artifactDir = ".";   ///< capsules land here
    size_t cacheEntries = 4096;

    /** Start with workers gated (jobs queue but do not run) until
     *  resume() — deterministic queue-depth and shed tests. */
    bool startPaused = false;

    /** Write-ahead job journal ("xloops-journal-1"); empty disables
     *  durability (jobs die with the process, the pre-journal
     *  behavior). See docs/SERVICE.md §7. */
    std::string journalPath;

    /** Replay the journal at startup and re-enqueue acknowledged
     *  jobs the previous generation never finished. Only meaningful
     *  with journalPath set; xloopsd --no-recover clears it. */
    bool recover = true;

    /** Periodically checkpoint attempt-0 runs (into artifactDir)
     *  every N committed GPP instructions so recovery can resume a long
     *  job mid-flight instead of restarting it (0 disables; needs
     *  journalPath). */
    u64 checkpointEveryInsts = 0;
};

/** Monotonic counters a `stats` request reports. */
struct SupervisorStats
{
    u64 submitted = 0;   ///< accepted into the queue
    u64 done = 0;        ///< terminal Done (including cache hits)
    u64 failed = 0;      ///< terminal Failed
    u64 shed = 0;        ///< refused by admission control
    u64 cancelled = 0;   ///< terminal Cancelled
    u64 retries = 0;     ///< re-run attempts beyond the first
    u64 cacheHits = 0;
    u64 cacheMisses = 0;
    u64 queued = 0;      ///< current queue depth (gauge)
    u64 running = 0;     ///< jobs on workers right now (gauge)
    u64 recovered = 0;   ///< re-enqueued from the journal at startup
    u64 resumed = 0;     ///< recovered jobs restored from a checkpoint
};

/** What startup recovery found in the journal (xloopsd logs this). */
struct RecoveryReport
{
    u64 recovered = 0;   ///< jobs re-enqueued this generation
    u64 withCheckpoint = 0;  ///< of those, how many carry a checkpoint
    u64 previouslyFinished = 0;  ///< terminal in the old generation
    bool tornTail = false;   ///< the old journal ended mid-record
};

/** What submit() decided. */
struct Admission
{
    bool accepted = false;
    u64 jobId = 0;          ///< allocated even for shed jobs
    std::string reason;     ///< why not, when !accepted
};

/** One-shot health probe ("health" protocol verb, `xloopsc health`). */
struct HealthInfo
{
    u64 uptimeUs = 0;
    u64 queued = 0;       ///< current queue depth
    u64 inFlight = 0;     ///< admitted but not yet terminal
    u64 running = 0;      ///< jobs on workers right now
    u64 cacheEntries = 0;

    /** Shedding (queue at capacity) or draining: alive but refusing
     *  or about to refuse work — `xloopsc health` exits 5. */
    bool degraded = false;
    bool draining = false;
};

class Supervisor
{
  public:
    explicit Supervisor(const SupervisorConfig &config = {});

    /** drain()s if the caller has not. */
    ~Supervisor();

    /**
     * Validate and enqueue @p spec. Invalid specs and overload both
     * come back !accepted (reason distinguishes them); a shed job
     * still has an id (journalled and counted) but no record.
     */
    Admission submit(const RunSpec &spec);

    /** Block until @p jobId is terminal, then hand out its outcome
     *  and forget the job. Throws FatalError for ids that are unknown
     *  or already handed out. */
    JobOutcome wait(u64 jobId);

    /** Snapshot of @p jobId right now (may be non-terminal). Throws
     *  FatalError for ids that are unknown or already handed out. */
    JobOutcome status(u64 jobId) const;

    /**
     * Cancel @p jobId: a queued job becomes terminal Cancelled
     * without running; a running job gets its stop flag raised
     * (lands as a Cancelled SimError at the next commit boundary).
     * False when already terminal, handed out or unknown.
     */
    bool cancel(u64 jobId);

    /** Release workers gated by SupervisorConfig::startPaused. */
    void resume();

    /**
     * Graceful shutdown: refuse new submissions, cancel everything
     * still queued, let running jobs finish (or honor their stop
     * flags), and join all threads. Idempotent.
     */
    void drain();

    bool draining() const { return drainFlag.load(); }

    SupervisorStats stats() const;

    /** Snapshot for the "health" verb (degraded = shedding/draining). */
    HealthInfo health() const;

    /**
     * Publish the supervisor's mutex-guarded job accounting (plus the
     * cache and queue views) into the global metrics registry as one
     * consistent family, so `jobs_admitted == completed + failed +
     * shed + cancelled + in_flight` holds *exactly* at every scrape.
     * Call immediately before reading the registry (the metrics verb,
     * the metrics-log tick, and loadgen's final snapshot all do).
     */
    void publishMetrics() const;

    ResultCache &cache() { return resultCache; }

    /** What startup recovery replayed from the journal (all zeros
     *  when journaling is off or this was a cold start). */
    const RecoveryReport &recovery() const { return recoveryInfo; }

    /** The service flight recorder (dumped into capsules/on drain). */
    FlightRecorder &flight() { return flightRec; }

    /** The per-job span ring: Svc-track slices in monotonicUs() time,
     *  renderable next to simulator traces via writeChromeJson(). */
    Tracer &spanTracer() { return spans; }

  private:
    /** A job from admission until wait() hands out its outcome. */
    struct JobRecord
    {
        RunSpec spec;
        JobOutcome outcome;
        std::atomic<u32> stop{0};  ///< a StopCause, polled by the run
        u64 admittedUs = 0;        ///< monotonicUs() at admission

        /** Crash recovery: the id this job had in the previous daemon
         *  generation (0 = fresh submission) and the checkpoint text
         *  it left behind, consumed by attempt 0 of the re-run. */
        u64 recoveredFrom = 0;
        std::string resumeCkpt;

        /** Wall-clock deadline of the current attempt (watchdog
         *  scans these; guarded by the supervisor mutex). */
        bool deadlineArmed = false;
        std::chrono::steady_clock::time_point deadlineAt;
    };

    void workerLoop();
    void watchdogLoop();
    void runJob(JobRecord &rec);

    /** Replay the journal, re-enqueue the previous generation's
     *  unfinished jobs, and rotate in this generation's journal.
     *  Runs in the constructor before any worker exists. */
    void recoverFromJournal();

    /** The periodic-checkpoint file of @p jobId this generation. */
    std::string ckptPathFor(u64 jobId) const;

    /** Emit one Svc-track span event (the Tracer ring is not itself
     *  thread-safe; job lifecycle events are rare enough that a mutex
     *  costs nothing). Gated on metricsEnabled(). */
    void emitSpan(TraceKind kind, unsigned attempt, u64 jobId, i64 a1);

    /**
     * The one terminal transition: write the journal record, the
     * flight event and the span (all carrying @p detail), then publish
     * @p status, bump its counter and wake the waiters. The caller
     * must own @p rec (its worker, or whoever took it off the queue)
     * and must not touch it afterwards: wait() may already have
     * removed it.
     */
    void finish(JobRecord &rec, JobStatus status,
                const std::string &detail);

    SupervisorConfig cfg;
    ResultCache resultCache;
    BoundedJobQueue queue;
    std::unique_ptr<Journal> journal;  ///< null when journaling is off
    RecoveryReport recoveryInfo;

    mutable std::mutex m;
    std::condition_variable terminalCv;  ///< a job turned terminal
    std::condition_variable gateCv;      ///< pause gate + backoff waits
    std::map<u64, std::unique_ptr<JobRecord>> jobs;  ///< live jobs only
    std::atomic<u64> nextJobId{1};
    bool paused = false;
    std::atomic<bool> drainFlag{false};
    bool joined = false;

    SupervisorStats counters;  ///< guarded by m (gauges computed live)

    FlightRecorder flightRec;
    mutable std::mutex spanMu;
    Tracer spans{size_t{1} << 16};
    u64 startUs = 0;           ///< monotonicUs() at construction

    std::vector<std::thread> workers;
    std::thread watchdog;
};

} // namespace xloops

#endif // XLOOPS_SERVICE_SUPERVISOR_H
