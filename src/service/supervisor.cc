#include "service/supervisor.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>

#include <unistd.h>

#include "common/json.h"
#include "common/log.h"
#include "common/loop_profile.h"
#include "common/metrics.h"
#include "common/pool.h"
#include "common/serialize.h"
#include "common/sim_error.h"
#include "kernels/kernel.h"
#include "system/capsule.h"
#include "system/report.h"

namespace xloops {

namespace {

/** Hash of the program text a job executes (the kernel's assembly
 *  source; spec.gpBinary is a separate key component since the
 *  derived GP-ISA image is a deterministic function of the source). */
u64
programTextHash(const std::string &source)
{
    u64 h = 0x584c4f4f50530931ull;  // "XLOOPS\t1"
    for (const char c : source)
        h = mix64(h ^ static_cast<u8>(c));
    return mix64(h);
}

/** Hot-path metric handles, resolved once (the registry reference is
 *  stable for process lifetime; see docs/OBSERVABILITY.md §6.1 for
 *  the name catalogue). */
struct SvcMetrics
{
    Counter &deadlineKills =
        metricsRegistry().counter("xloops_deadline_kills_total");
    Counter &backoffs = metricsRegistry().counter("xloops_backoffs_total");
    Counter &backoffMsSlept =
        metricsRegistry().counter("xloops_backoff_ms_total");
    HistogramMetric &queueWaitUs =
        metricsRegistry().histogram("xloops_job_queue_wait_us");
    HistogramMetric &cacheLookupUs =
        metricsRegistry().histogram("xloops_job_cache_lookup_us");
    HistogramMetric &simUs =
        metricsRegistry().histogram("xloops_job_sim_us");
};

SvcMetrics &
svcMetrics()
{
    static SvcMetrics sm;
    return sm;
}

/** The per-error-kind retry counter (label-in-name; rare path, so the
 *  registry lookup per retry is fine). */
Counter &
retryCounterFor(const char *kindName)
{
    return metricsRegistry().counter(
        strf("xloops_retries_total{kind=\"", kindName, "\"}"));
}

} // namespace

Supervisor::Supervisor(const SupervisorConfig &config)
    : cfg(config), resultCache(config.cacheEntries),
      queue(config.queueDepth), paused(config.startPaused)
{
    startUs = monotonicUs();
    spans.enable();

    // Corruption can never serve a wrong answer (the cache degrades
    // to a miss) — but it must also never pass silently.
    resultCache.setCorruptionHook([this](u64 key, const std::string &why) {
        metricsRegistry().counter("xloops_cache_corrupt_total").inc();
        flightRec.record(FlightKind::CacheCorrupt, 0,
                         strf("key 0x", std::hex, key, ": ", why));
    });

    // Recovery must complete before the first worker exists: the
    // journal rotation below re-accepts every carried-over job, and a
    // worker racing that would observe a half-rebuilt queue.
    if (!cfg.journalPath.empty())
        recoverFromJournal();

    unsigned n = cfg.workers;
    if (n == 0) {
        n = std::thread::hardware_concurrency();
        if (n == 0)
            n = 2;
    }
    workers.reserve(n);
    for (unsigned i = 0; i < n; i++)
        workers.emplace_back([this] { workerLoop(); });
    watchdog = std::thread([this] { watchdogLoop(); });
}

Supervisor::~Supervisor()
{
    drain();
}

std::string
Supervisor::ckptPathFor(u64 jobId) const
{
    return strf(cfg.artifactDir, "/job-", jobId, ".ckpt.json");
}

void
Supervisor::recoverFromJournal()
{
    JournalRecovery pending;
    if (cfg.recover) {
        const JournalReplay replay = replayJournal(cfg.journalPath);
        pending = recoverPending(replay);
        recoveryInfo.tornTail = replay.tornTail;
        recoveryInfo.previouslyFinished = pending.completed +
                                          pending.failed +
                                          pending.cancelled + pending.shed;
        if (replay.tornTail) {
            metricsRegistry()
                .counter("xloops_journal_torn_tail_total")
                .inc();
            flightRec.record(FlightKind::JournalTorn, 0,
                             strf(replay.tornBytes, " bytes dropped"));
            warn(strf("journal ", cfg.journalPath, ": torn tail (",
                      replay.tornBytes,
                      " bytes dropped) — expected after kill -9"));
        }
    }

    // This generation journals into a sibling first and renames over
    // the old journal only after every carried-over job has been
    // re-accepted in it. A crash during recovery therefore leaves
    // either the old journal (recovery re-runs from scratch) or the
    // complete new one — never a state that forgets a job.
    const std::string tmp = cfg.journalPath + ".new";
    ::unlink(tmp.c_str());  // a leftover from a crash mid-recovery
    journal = std::make_unique<Journal>(tmp);

    for (const RecoveredJob &rj : pending.pending) {
        auto rec = std::make_unique<JobRecord>();
        rec->spec = rj.spec;
        rec->admittedUs = monotonicUs();
        rec->recoveredFrom = rj.oldJobId;
        const u64 id = nextJobId.fetch_add(1);
        rec->outcome.jobId = id;

        // Adopt the old generation's latest periodic checkpoint so a
        // long job resumes mid-flight instead of restarting. The old
        // file is consumed either way: its text now lives in the
        // record, and this generation checkpoints under the new id.
        const std::string oldCkpt = ckptPathFor(rj.oldJobId);
        try {
            rec->resumeCkpt = readFile(oldCkpt);
        } catch (const FatalError &) {
            // No checkpoint yet: the job restarts from the beginning.
        }
        ::unlink(oldCkpt.c_str());
        if (!rec->resumeCkpt.empty())
            recoveryInfo.withCheckpoint++;

        journal->append(JournalEvent::Accepted, id, "", 0, &rec->spec,
                        /*sync=*/true);
        journal->append(JournalEvent::Recovered, id,
                        strf("was job ", rj.oldJobId,
                             rj.started ? ", started" : "",
                             rec->resumeCkpt.empty() ? ""
                                                     : ", checkpointed"),
                        rj.attempts);
        flightRec.record(FlightKind::JobRecovered, id,
                         strf("was job ", rj.oldJobId));

        JobRecord *raw = rec.get();
        {
            std::lock_guard<std::mutex> lock(m);
            jobs.emplace(id, std::move(rec));
            counters.submitted++;
            counters.recovered++;
        }
        // An acknowledged job is never shed, even into a full queue —
        // it still occupies depth, so fresh traffic feels the
        // backpressure instead.
        if (!queue.forcePush(id))
            finish(*raw, JobStatus::Cancelled, "queue closed");
        recoveryInfo.recovered++;
    }

    if (::rename(tmp.c_str(), cfg.journalPath.c_str()) < 0)
        fatal(strf("cannot rotate journal ", tmp, " -> ",
                   cfg.journalPath, ": ", std::strerror(errno)));
}

Admission
Supervisor::submit(const RunSpec &spec)
{
    Admission adm;
    if (drainFlag.load()) {
        adm.reason = "draining";
        flightRec.record(FlightKind::JobInvalid, 0, "draining");
        return adm;
    }
    // The daemon runs registered kernels; a kernel-less spec is an
    // xsim program-file run.
    std::string why = "job has no kernel";
    if (spec.kernel.empty() || !spec.validate(why)) {
        adm.reason = why;
        flightRec.record(FlightKind::JobInvalid, 0, why);
        return adm;
    }

    const u64 admittedUs = monotonicUs();
    const u64 id = nextJobId.fetch_add(1);
    adm.jobId = id;

    // Record admission before the push: once the id is in the queue a
    // worker may start it, and the flight ring must show admitted
    // before started. A shed job reads "admitted then shed".
    flightRec.record(FlightKind::JobAdmitted, id,
                     strf(spec.kernel, "/", spec.config, "/", spec.mode));
    // The durability contract: the accepted record is on disk before
    // the client can observe the admission, so a daemon killed right
    // after replying still re-runs the job next generation.
    if (journal)
        journal->append(JournalEvent::Accepted, id, "", 0, &spec,
                        /*sync=*/true);
    {
        // The record exists exactly when the id is queued: a worker
        // that pops the id looks it up under m, so it waits for the
        // insert below.
        std::lock_guard<std::mutex> lock(m);
        if (queue.tryPush(id)) {
            auto rec = std::make_unique<JobRecord>();
            rec->spec = spec;
            rec->admittedUs = admittedUs;
            rec->outcome.jobId = id;
            jobs.emplace(id, std::move(rec));
            counters.submitted++;
            adm.accepted = true;
        } else {
            counters.shed++;
        }
    }
    if (!adm.accepted) {
        // Never queued: the workers are saturated and the backlog is
        // already as deep as we are willing to make a client wait.
        adm.reason = "overloaded";
        flightRec.record(FlightKind::JobShed, id, "queue full");
        if (journal)
            journal->append(JournalEvent::Shed, id, "queue full", 0,
                            nullptr, /*sync=*/true);
        emitSpan(TraceKind::JobAdmit, 0, id, /*shed=*/1);
        return adm;
    }
    emitSpan(TraceKind::JobAdmit, 0, id, 0);
    return adm;
}

JobOutcome
Supervisor::wait(u64 jobId)
{
    std::unique_lock<std::mutex> lock(m);
    // Look the record up on every wake: another waiter on the same id
    // may have taken it.
    auto it = jobs.end();
    terminalCv.wait(lock, [&] {
        it = jobs.find(jobId);
        return it == jobs.end() || it->second->outcome.terminal();
    });
    if (it == jobs.end())
        fatal(strf("unknown job id ", jobId));
    JobOutcome outcome = std::move(it->second->outcome);
    jobs.erase(it);
    return outcome;
}

JobOutcome
Supervisor::status(u64 jobId) const
{
    std::lock_guard<std::mutex> lock(m);
    const auto it = jobs.find(jobId);
    if (it == jobs.end())
        fatal(strf("unknown job id ", jobId));
    return it->second->outcome;
}

bool
Supervisor::cancel(u64 jobId)
{
    JobRecord *queued = nullptr;
    {
        std::lock_guard<std::mutex> lock(m);
        const auto it = jobs.find(jobId);
        if (it == jobs.end() || it->second->outcome.terminal())
            return false;
        JobRecord &rec = *it->second;
        if (rec.outcome.status == JobStatus::Queued &&
            queue.remove(jobId)) {
            queued = &rec;  // off the queue: no worker can claim it
        } else {
            // Already on (or headed to) a worker: raise the
            // cooperative stop; the run dies with SimError(Cancelled)
            // at its next commit.
            rec.stop.store(static_cast<u32>(StopCause::Cancelled));
        }
    }
    if (queued)
        finish(*queued, JobStatus::Cancelled, "cancelled while queued");
    else
        gateCv.notify_all();  // interrupt a backoff wait
    return true;
}

void
Supervisor::resume()
{
    {
        std::lock_guard<std::mutex> lock(m);
        paused = false;
    }
    gateCv.notify_all();
}

void
Supervisor::emitSpan(TraceKind kind, unsigned attempt, u64 jobId, i64 a1)
{
#ifndef XLOOPS_TRACE_DISABLED
    if (!metricsEnabled())
        return;
    std::lock_guard<std::mutex> lock(spanMu);
    spans.emit(monotonicUs(), TraceComp::Svc, attempt, kind,
               static_cast<i64>(jobId), a1);
#else
    (void)kind;
    (void)attempt;
    (void)jobId;
    (void)a1;
#endif
}

void
Supervisor::drain()
{
    // The flag is raised under the same hold of m that takes the
    // backlog off the queue: a paused worker reads it in its gate
    // predicate (under m), and a closed queue has nothing left to pop.
    std::vector<JobRecord *> backlog;
    bool first = false;
    {
        std::lock_guard<std::mutex> lock(m);
        first = !drainFlag.exchange(true);
        if (first) {
            for (const u64 id : queue.close())
                backlog.push_back(jobs.at(id).get());
            paused = false;
        }
    }
    if (first) {
        flightRec.record(FlightKind::DrainBegin, 0);
        // Clients blocked in wait() learn their fate now rather than
        // never.
        for (JobRecord *rec : backlog)
            finish(*rec, JobStatus::Cancelled, "drain");
        gateCv.notify_all();  // release the pause gate + backoff waits
    }
    {
        std::lock_guard<std::mutex> lock(m);
        if (joined)
            return;
        joined = true;
    }
    for (std::thread &t : workers)
        t.join();
    if (watchdog.joinable())
        watchdog.join();
    flightRec.record(FlightKind::DrainEnd, 0);
}

SupervisorStats
Supervisor::stats() const
{
    std::lock_guard<std::mutex> lock(m);
    SupervisorStats s = counters;
    s.cacheHits = resultCache.hits();
    s.cacheMisses = resultCache.misses();
    s.queued = queue.depth();
    s.running = 0;
    for (const auto &[id, rec] : jobs)
        if (rec->outcome.status == JobStatus::Running)
            s.running++;
    return s;
}

HealthInfo
Supervisor::health() const
{
    const SupervisorStats s = stats();
    HealthInfo h;
    h.uptimeUs = monotonicUs() - startUs;
    h.queued = s.queued;
    h.running = s.running;
    // Every accepted job that has not yet turned terminal (includes
    // the instants between accept->queue and pop->Running).
    h.inFlight = s.submitted - s.done - s.failed - s.cancelled;
    h.cacheEntries = resultCache.size();
    h.draining = drainFlag.load();
    // Degraded = alive but refusing (or about to refuse) work: the
    // queue is at its admission bound, so the next submit sheds.
    h.degraded = h.draining || s.queued >= cfg.queueDepth;
    return h;
}

void
Supervisor::publishMetrics() const
{
    MetricsRegistry &reg = metricsRegistry();
    SupervisorStats s;
    {
        // One lock hold for the whole job family: the published
        // counters describe a single consistent instant, which is
        // what makes the conservation invariant exact at any scrape
        // (tools/check_metrics.py enforces it).
        std::lock_guard<std::mutex> lock(m);
        s = counters;
    }
    // "Admitted" counts every validated submission that received an
    // id — accepted into the queue or shed at the door.
    const u64 admitted = s.submitted + s.shed;
    const u64 inFlight = s.submitted - s.done - s.failed - s.cancelled;
    reg.counter("xloops_jobs_admitted_total").publish(admitted);
    reg.counter("xloops_jobs_completed_total").publish(s.done);
    reg.counter("xloops_jobs_failed_total").publish(s.failed);
    reg.counter("xloops_jobs_shed_total").publish(s.shed);
    reg.counter("xloops_jobs_cancelled_total").publish(s.cancelled);
    // The unlabeled series totals the per-kind variants (they are
    // incremented at the same site), sharing one exposition family.
    reg.counter("xloops_retries_total").publish(s.retries);
    reg.gauge("xloops_jobs_in_flight").publish(inFlight);

    reg.gauge("xloops_queue_depth").publish(queue.depth());
    reg.gauge("xloops_queue_capacity").publish(cfg.queueDepth);
    reg.counter("xloops_cache_hits_total").publish(resultCache.hits());
    reg.counter("xloops_cache_misses_total")
        .publish(resultCache.misses());
    reg.counter("xloops_cache_evictions_total")
        .publish(resultCache.evictions());
    reg.gauge("xloops_cache_entries").publish(resultCache.size());
    reg.gauge("xloops_cache_bytes").publish(resultCache.bytes());
    reg.counter("xloops_cache_corrupt_total")
        .publish(resultCache.corruptions());
    reg.counter("xloops_jobs_recovered_total")
        .publish(recoveryInfo.recovered);
    reg.counter("xloops_jobs_resumed_from_checkpoint_total")
        .publish(s.resumed);
    reg.gauge("xloops_uptime_us").publish(monotonicUs() - startUs);
    reg.gauge("xloops_workers").publish(workers.size());
    reg.counter("xloops_flight_events_total")
        .publish(flightRec.totalRecorded());
    reg.counter("xloops_span_events_total").publish([this] {
        std::lock_guard<std::mutex> lock(spanMu);
        return spans.totalEmitted();
    }());
}

void
Supervisor::workerLoop()
{
    while (true) {
        {
            std::unique_lock<std::mutex> lock(m);
            gateCv.wait(lock,
                        [&] { return !paused || drainFlag.load(); });
        }
        u64 id = 0;
        if (!queue.pop(id))
            return;  // closed
        // A popped id is a live Queued record: cancel() and drain()
        // only finish jobs they took off the queue themselves.
        JobRecord *rec = nullptr;
        {
            std::lock_guard<std::mutex> lock(m);
            rec = jobs.at(id).get();
            rec->outcome.status = JobStatus::Running;
            rec->outcome.queueWaitUs = monotonicUs() - rec->admittedUs;
        }
        svcMetrics().queueWaitUs.observe(rec->outcome.queueWaitUs);
        emitSpan(TraceKind::JobQueueWait, 0, id,
                 static_cast<i64>(rec->outcome.queueWaitUs));
        flightRec.record(FlightKind::JobStarted, id);
        if (journal)
            journal->append(JournalEvent::Started, id);
        runJob(*rec);
    }
}

void
Supervisor::watchdogLoop()
{
    // Coarse scan: deadline enforcement needs to be *bounded*, not
    // precise — the run notices the flag at its next commit anyway.
    std::unique_lock<std::mutex> lock(m);
    while (!drainFlag.load() || !joined) {
        gateCv.wait_for(lock, std::chrono::milliseconds(20));
        if (drainFlag.load() && joined)
            return;
        const auto now = std::chrono::steady_clock::now();
        for (auto &[id, rec] : jobs) {
            if (rec->deadlineArmed && now >= rec->deadlineAt &&
                rec->stop.load() == 0) {
                rec->stop.store(static_cast<u32>(StopCause::Deadline));
                svcMetrics().deadlineKills.inc();
                flightRec.record(FlightKind::JobDeadline, id,
                                 strf("attempt ", rec->outcome.attempts));
            }
        }
    }
}

void
Supervisor::finish(JobRecord &rec, JobStatus status,
                   const std::string &detail)
{
    // The caller owns rec until the status is published below, so
    // these unlocked reads race with no writer.
    const u64 id = rec.outcome.jobId;
    const FlightKind kind = status == JobStatus::Done
                                ? FlightKind::JobFinished
                                : status == JobStatus::Cancelled
                                      ? FlightKind::JobCancelled
                                      : FlightKind::JobFailed;
    flightRec.record(kind, id, detail);
    if (journal) {
        const JournalEvent ev = status == JobStatus::Done
                                    ? JournalEvent::Completed
                                    : status == JobStatus::Cancelled
                                          ? JournalEvent::Cancelled
                                          : JournalEvent::Failed;
        // The terminal fsync is the other half of the contract: a
        // finished job is never re-run by the next generation, and it
        // lands before any client can see the outcome.
        journal->append(ev, id, detail, rec.outcome.attempts, nullptr,
                        /*sync=*/true);
        if (cfg.checkpointEveryInsts)
            ::unlink(ckptPathFor(id).c_str());
    }
    emitSpan(TraceKind::JobReply, 0, id, static_cast<i64>(status));
    {
        std::lock_guard<std::mutex> lock(m);
        rec.outcome.status = status;
        rec.deadlineArmed = false;
        switch (status) {
          case JobStatus::Done: counters.done++; break;
          case JobStatus::Failed: counters.failed++; break;
          case JobStatus::Cancelled: counters.cancelled++; break;
          default: break;
        }
    }
    terminalCv.notify_all();
}

void
Supervisor::runJob(JobRecord &rec)
{
    const RunSpec &spec = rec.spec;
    const Kernel &kernel = kernelByName(spec.kernel);
    const ExecMode mode = execModeByName(spec.mode);
    const u64 cacheKey =
        resultCacheKey(programTextHash(kernel.source), spec);

    // A hit is served verbatim: the simulator is deterministic, so
    // this is byte-identical to what the run below would produce.
    std::string cached;
    const u64 lookupStartUs = monotonicUs();
    const bool hit = resultCache.lookup(cacheKey, cached);
    const u64 lookupUs = monotonicUs() - lookupStartUs;
    svcMetrics().cacheLookupUs.observe(lookupUs);
    emitSpan(TraceKind::JobCacheLookup, 0, rec.outcome.jobId,
             static_cast<i64>(lookupUs));
    {
        std::lock_guard<std::mutex> lock(m);
        rec.outcome.cacheLookupUs = lookupUs;
    }
    if (hit) {
        // The reply carries the same counts as the miss that filled
        // the entry; they live in the document's "result" object.
        const JsonValue doc = jsonParse(cached);
        const JsonValue &result = doc.at("result");
        {
            std::lock_guard<std::mutex> lock(m);
            rec.outcome.cached = true;
            rec.outcome.cycles = result.at("cycles").asU64();
            rec.outcome.gppInsts = result.at("gpp_insts").asU64();
            rec.outcome.statsJson = cached;
        }
        flightRec.record(FlightKind::JobCacheHit, rec.outcome.jobId);
        finish(rec, JobStatus::Done, "");
        return;
    }

    const unsigned maxRetries =
        spec.maxRetries >= 0
            ? std::min(static_cast<unsigned>(spec.maxRetries),
                       cfg.retry.maxRetries)
            : cfg.retry.maxRetries;
    const u64 deadlineMs =
        spec.deadlineMs ? spec.deadlineMs : cfg.defaultDeadlineMs;

    // The jitter stream is rooted at the job's fault seed, so a
    // replayed job sees the identical backoff sequence.
    RngPool rngPool(spec.injectSeed ? spec.injectSeed
                                    : rec.outcome.jobId);
    Rng &jitter = retryJitterStream(rngPool);

    for (unsigned attempt = 0;; attempt++) {
        // Retries re-derive the fault seed: the original schedule
        // demonstrably wedges, and a fresh (but still deterministic)
        // schedule is the legitimate way out. Only the first
        // attempt's result may enter the cache — later attempts
        // describe a different schedule than the key.
        RunSpec attemptSpec = spec;
        if (attempt != 0)
            attemptSpec.injectSeed = taskSeed(spec.injectSeed, attempt);

        RunOptions ropts;
        ropts.lockstep = spec.lockstep;
        ropts.stopFlag = &rec.stop;

        // Durability extras ride on attempt 0 only: a retry's
        // re-derived schedule differs from the key's run, so its
        // checkpoints would lie, and a recovered retry simply starts
        // over (at-least-once execution, exactly-once results).
        if (journal && attempt == 0) {
            if (cfg.checkpointEveryInsts) {
                ropts.checkpointEvery = cfg.checkpointEveryInsts;
                const std::string ckptPath =
                    ckptPathFor(rec.outcome.jobId);
                ropts.checkpointSink = [ckptPath](u64,
                                                  const std::string &json) {
                    // A failed checkpoint degrades resumability, never
                    // the job itself.
                    try {
                        atomicWriteFile(ckptPath, json);
                    } catch (const FatalError &err) {
                        warn(strf("checkpoint write ", ckptPath, ": ",
                                  err.what()));
                    }
                };
            }
            if (!rec.resumeCkpt.empty()) {
                ropts.restoreText = rec.resumeCkpt;
                flightRec.record(FlightKind::JobResumed,
                                 rec.outcome.jobId,
                                 strf("was job ", rec.recoveredFrom));
                std::lock_guard<std::mutex> lock(m);
                counters.resumed++;
            }
        }

        CapsuleContext capCtx;
        ropts.capsule = &capCtx;
        LoopProfiler profiler;
        RunHooks hooks;
        hooks.runOptions = &ropts;
        hooks.maxInsts = spec.maxInsts;
        hooks.profiler = &profiler;

        {
            std::lock_guard<std::mutex> lock(m);
            rec.outcome.attempts = attempt + 1;
            rec.deadlineAt = std::chrono::steady_clock::now() +
                             std::chrono::milliseconds(deadlineMs);
            rec.deadlineArmed = true;
        }
        if (journal)
            journal->append(JournalEvent::Attempt, rec.outcome.jobId,
                            "", attempt + 1);

        const u64 attemptStartUs = monotonicUs();
        const auto closeAttempt = [&] {
            const u64 us = monotonicUs() - attemptStartUs;
            svcMetrics().simUs.observe(us);
            emitSpan(TraceKind::JobAttempt, attempt, rec.outcome.jobId,
                     static_cast<i64>(us));
            std::lock_guard<std::mutex> lock(m);
            rec.deadlineArmed = false;
            rec.outcome.simUs += us;
        };

        try {
            const KernelRun run = runKernel(
                kernel, attemptSpec.sysConfig(), mode, spec.gpBinary, hooks);
            closeAttempt();
            if (!run.passed) {
                // A checker failure is a wrong *answer*, not a wedged
                // schedule: deterministic, so never retried, and
                // there is no SimError to capsule.
                std::lock_guard<std::mutex> lock(m);
                rec.outcome.error = run.error;
                rec.outcome.errorKind = "checker";
            } else {
                std::ostringstream stats;
                writeStatsJson(stats, spec.config, spec.mode,
                               spec.kernel, run.result, profiler,
                               nullptr);
                std::lock_guard<std::mutex> lock(m);
                rec.outcome.cycles = run.result.cycles;
                rec.outcome.gppInsts = run.result.gppInsts;
                rec.outcome.statsJson = stats.str();
            }
            if (run.passed && attempt == 0)
                resultCache.insert(cacheKey, rec.outcome.statsJson);
            finish(rec, run.passed ? JobStatus::Done : JobStatus::Failed,
                   rec.outcome.errorKind);
            return;
        } catch (const SimError &err) {
            closeAttempt();
            const FailureClass cls = classifySimError(err.kind());
            const bool stopped = rec.stop.load() != 0;
            if (cls == FailureClass::Retryable && !stopped &&
                attempt < maxRetries && !drainFlag.load()) {
                const u64 waitMs =
                    backoffMs(cfg.retry, attempt, jitter);
                retryCounterFor(simErrorKindName(err.kind())).inc();
                svcMetrics().backoffs.inc();
                svcMetrics().backoffMsSlept.inc(waitMs);
                flightRec.record(
                    FlightKind::JobRetried, rec.outcome.jobId,
                    strf(simErrorKindName(err.kind()), " attempt ",
                         attempt, " backoff ", waitMs, "ms"));
                if (journal)
                    journal->append(JournalEvent::Backoff,
                                    rec.outcome.jobId,
                                    strf(waitMs, "ms"), attempt + 1);
                const u64 backoffStartUs = monotonicUs();
                bool interrupted;
                {
                    std::unique_lock<std::mutex> lock(m);
                    counters.retries++;
                    interrupted = gateCv.wait_for(
                        lock, std::chrono::milliseconds(waitMs), [&] {
                            return drainFlag.load() ||
                                   rec.stop.load() != 0;
                        });
                }
                emitSpan(TraceKind::JobBackoff, attempt,
                         rec.outcome.jobId,
                         static_cast<i64>(monotonicUs() -
                                          backoffStartUs));
                if (!interrupted)
                    continue;  // backoff elapsed: next attempt
                // Drain or cancel won the backoff wait: finalize with
                // the failure we already have (capsuled below).
            }

            // Crash isolation: the failure becomes a self-contained
            // replay capsule artifact, never a dead worker.
            std::string capsulePath;
            std::string capsule;
            if (capCtx.valid) {
                capsulePath =
                    strf(cfg.artifactDir, "/job-", rec.outcome.jobId,
                         ".capsule.json");
                try {
                    capsule = writeCapsule(
                        capsulePath, attemptSpec, capCtx, err, "",
                        flightRec.dumpJson(/*pretty=*/false));
                } catch (const FatalError &werr) {
                    warn(strf("job ", rec.outcome.jobId,
                              ": capsule write failed: ",
                              werr.what()));
                    capsulePath.clear();
                }
            }
            {
                std::lock_guard<std::mutex> lock(m);
                rec.outcome.error = err.what();
                rec.outcome.errorKind =
                    simErrorKindName(err.kind());
                rec.outcome.capsulePath = std::move(capsulePath);
                rec.outcome.capsule = std::move(capsule);
            }
            finish(rec, err.kind() == SimErrorKind::Cancelled
                            ? JobStatus::Cancelled
                            : JobStatus::Failed,
                   rec.outcome.errorKind);
            return;
        } catch (const std::exception &err) {
            // FatalError / PanicError: a bug or bad input slipped
            // past validate(). Isolate it to this job.
            closeAttempt();
            {
                std::lock_guard<std::mutex> lock(m);
                rec.outcome.error = err.what();
                rec.outcome.errorKind = "fatal";
            }
            finish(rec, JobStatus::Failed, rec.outcome.errorKind);
            return;
        }
    }
}

} // namespace xloops
