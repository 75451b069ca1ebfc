// Service-layer unit tests: bounded-queue admission control, the
// content-addressed result cache (byte-identity and persistence),
// the retry taxonomy and deterministic backoff (satellite of the
// service PR: bounded retries, monotone backoff, divergence never
// retried but always capsuled), the wire-protocol codecs, and the
// supervisor driven directly (no socket).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "common/flight.h"
#include "common/loop_profile.h"
#include "common/json.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "common/sim_error.h"
#include "common/trace.h"
#include "kernels/kernel.h"
#include "service/cache.h"
#include "service/job.h"
#include "service/journal.h"
#include "service/protocol.h"
#include "service/queue.h"
#include "service/retry.h"
#include "service/supervisor.h"
#include "system/config.h"

namespace xloops {
namespace {

// ---------------------------------------------------------------- queue

TEST(BoundedJobQueue, ShedsBeyondTheBound)
{
    BoundedJobQueue q(2);
    EXPECT_TRUE(q.tryPush(1));
    EXPECT_TRUE(q.tryPush(2));
    EXPECT_FALSE(q.tryPush(3)) << "third push must shed";
    EXPECT_EQ(q.depth(), 2u);

    u64 id = 0;
    EXPECT_TRUE(q.pop(id));
    EXPECT_EQ(id, 1u);  // FIFO
    EXPECT_TRUE(q.tryPush(3)) << "a pop frees a slot";
}

TEST(BoundedJobQueue, CloseRefusesPushesAndDrainsPoppers)
{
    BoundedJobQueue q(4);
    EXPECT_TRUE(q.tryPush(1));
    EXPECT_TRUE(q.tryPush(2));
    EXPECT_EQ(q.close(), (std::vector<u64>{1, 2}))
        << "close hands the backlog back, oldest first";
    EXPECT_TRUE(q.isClosed());
    EXPECT_FALSE(q.tryPush(3)) << "closed queue refuses pushes";
    EXPECT_TRUE(q.close().empty()) << "the backlog is handed back once";

    u64 id = 0;
    EXPECT_FALSE(q.pop(id)) << "closed: poppers exit";
}

TEST(BoundedJobQueue, RemoveUnqueuesACancelledJob)
{
    BoundedJobQueue q(4);
    q.tryPush(1);
    q.tryPush(2);
    q.tryPush(3);
    EXPECT_TRUE(q.remove(2));
    EXPECT_FALSE(q.remove(2)) << "already removed";
    u64 id = 0;
    q.pop(id);
    EXPECT_EQ(id, 1u);
    q.pop(id);
    EXPECT_EQ(id, 3u);
}

// ---------------------------------------------------------------- cache

RunSpec
specimenSpec()
{
    RunSpec s;
    s.kernel = "rgb2cmyk-uc";
    s.config = "io+x";
    s.mode = "S";
    return s;
}

TEST(ResultCache, HitIsByteIdentical)
{
    ResultCache cache(8);
    const u64 key = resultCacheKey(0x1234, specimenSpec());
    std::string out;
    EXPECT_FALSE(cache.lookup(key, out));
    EXPECT_EQ(cache.misses(), 1u);

    const std::string doc = "{\n  \"cycles\": 42\n}\n";
    cache.insert(key, doc);
    ASSERT_TRUE(cache.lookup(key, out));
    EXPECT_EQ(out, doc) << "hits are served verbatim";
    EXPECT_EQ(cache.hits(), 1u);
}

TEST(ResultCache, KeyCoversEveryResultAffectingKnob)
{
    const RunSpec base = specimenSpec();
    const u64 k0 = resultCacheKey(1, base);
    EXPECT_EQ(k0, resultCacheKey(1, base)) << "key is stable";
    EXPECT_NE(k0, resultCacheKey(2, base)) << "program image";

    RunSpec s = base;
    s.injectSeed = 7;
    EXPECT_NE(k0, resultCacheKey(1, s)) << "fault seed";
    s = base;
    s.injectSeed = 7;
    s.injectRate = 0.05;
    const u64 kRate = resultCacheKey(1, s);
    s.injectRate = 0.05000000000000001;  // differs only in low bits
    EXPECT_NE(kRate, resultCacheKey(1, s)) << "rate is bit-exact";
    s = base;
    s.mode = "T";
    EXPECT_NE(k0, resultCacheKey(1, s)) << "mode";
    // ksack-sm-om and ksack-lg-om share their program text (one image
    // hash) and differ only in input setup.
    s = base;
    s.kernel = "ksack-sm-om";
    const u64 kSmall = resultCacheKey(1, s);
    s.kernel = "ksack-lg-om";
    EXPECT_NE(kSmall, resultCacheKey(1, s)) << "kernel name";
    s = base;
    s.maxInsts = 1000;
    EXPECT_NE(k0, resultCacheKey(1, s)) << "instruction valve";
    s = base;
    s.lockstep = true;
    EXPECT_NE(k0, resultCacheKey(1, s)) << "lockstep";

    // The deadline is a service quota, NOT part of the simulated
    // machine: two jobs differing only in deadline share a result.
    s = base;
    s.deadlineMs = 12345;
    EXPECT_EQ(k0, resultCacheKey(1, s));
}

TEST(ResultCache, IndexRoundTripsThroughDisk)
{
    const std::string path =
        testing::TempDir() + "/xloops_cache_index.json";
    const std::string doc = "{\"cycles\": 7,\n \"note\": \"x\\\"y\"}\n";
    const u64 key = resultCacheKey(99, specimenSpec());
    {
        ResultCache cache(8);
        cache.insert(key, doc);
        cache.saveIndex(path);
    }
    ResultCache restored(8);
    EXPECT_EQ(restored.loadIndex(path), 1u);
    std::string out;
    ASSERT_TRUE(restored.lookup(key, out));
    EXPECT_EQ(out, doc) << "byte-identical across daemon restarts";

    ResultCache cold(8);
    EXPECT_EQ(cold.loadIndex(testing::TempDir() + "/nonexistent.json"),
              0u)
        << "a missing index is a cold start, not an error";
}

TEST(ResultCache, FifoEvictionBoundsTheCache)
{
    ResultCache cache(2);
    cache.insert(1, "one");
    cache.insert(2, "two");
    cache.insert(3, "three");
    EXPECT_EQ(cache.size(), 2u);
    std::string out;
    EXPECT_FALSE(cache.lookup(1, out)) << "oldest entry evicted";
    EXPECT_TRUE(cache.lookup(2, out));
    EXPECT_TRUE(cache.lookup(3, out));
}

// ---------------------------------------------------------------- retry

TEST(Retry, TaxonomyNeverRetriesDivergence)
{
    // Retryable = the *schedule* wedged; a fresh attempt can win.
    EXPECT_EQ(classifySimError(SimErrorKind::Watchdog),
              FailureClass::Retryable);
    EXPECT_EQ(classifySimError(SimErrorKind::CycleLimit),
              FailureClass::Retryable);
    EXPECT_EQ(classifySimError(SimErrorKind::StructuralHang),
              FailureClass::Retryable);
    EXPECT_EQ(classifySimError(SimErrorKind::Deadline),
              FailureClass::Retryable);

    // Fatal = deterministic or explicit; a retry reproduces the
    // failure (or destroys divergence evidence).
    EXPECT_EQ(classifySimError(SimErrorKind::Divergence),
              FailureClass::Fatal);
    EXPECT_EQ(classifySimError(SimErrorKind::InstLimit),
              FailureClass::Fatal);
    EXPECT_EQ(classifySimError(SimErrorKind::Interrupted),
              FailureClass::Fatal);
    EXPECT_EQ(classifySimError(SimErrorKind::Cancelled),
              FailureClass::Fatal);
}

TEST(Retry, BackoffIsMonotoneAndBounded)
{
    RetryPolicy policy;
    policy.baseBackoffMs = 100;
    policy.maxBackoffMs = 5'000;
    policy.jitterFrac = 0.0;  // isolate the exponential shape

    RngPool pool(42);
    Rng &jitter = retryJitterStream(pool);
    u64 prev = 0;
    for (unsigned i = 0; i < 12; i++) {
        const u64 wait = backoffMs(policy, i, jitter);
        EXPECT_GE(wait, prev) << "retry " << i;
        EXPECT_LE(wait, policy.maxBackoffMs) << "retry " << i;
        prev = wait;
    }
    EXPECT_EQ(prev, policy.maxBackoffMs) << "growth saturates the cap";
}

TEST(Retry, JitterIsDeterministicFromTheNamedStream)
{
    RetryPolicy policy;
    policy.jitterFrac = 0.25;

    // Same root seed => identical wait sequence, run to run.
    RngPool a(7), b(7);
    for (unsigned i = 0; i < 6; i++) {
        const u64 wa = backoffMs(policy, i, retryJitterStream(a));
        const u64 wb = backoffMs(policy, i, retryJitterStream(b));
        EXPECT_EQ(wa, wb) << "retry " << i;
        // Jitter stays within [1-f, 1+f] of the capped exponential.
        u64 ideal = policy.baseBackoffMs;
        for (unsigned j = 0; j < i; j++)
            ideal = std::min(ideal * 2, policy.maxBackoffMs);
        EXPECT_GE(wa, static_cast<u64>(ideal * 0.74));
        EXPECT_LE(wa, static_cast<u64>(ideal * 1.26));
    }

    // The stream advances identically whatever jitterFrac is, so
    // flipping jitter off in a config cannot shift any *other*
    // consumer of the pool.
    RngPool withJitter(9), noJitter(9);
    RetryPolicy flat = policy;
    flat.jitterFrac = 0.0;
    for (unsigned i = 0; i < 4; i++) {
        backoffMs(policy, i, retryJitterStream(withJitter));
        backoffMs(flat, i, retryJitterStream(noJitter));
    }
    EXPECT_EQ(retryJitterStream(withJitter).rawState(),
              retryJitterStream(noJitter).rawState());
}

// ---------------------------------------------------------------- job

TEST(RunSpec, ValidateRejectsBadSpecsUpFront)
{
    std::string why;
    RunSpec s = specimenSpec();
    EXPECT_TRUE(s.validate(why)) << why;

    s.kernel = "no-such-kernel";
    EXPECT_FALSE(s.validate(why));

    s = specimenSpec();
    s.mode = "Z";
    EXPECT_FALSE(s.validate(why));

    s = specimenSpec();
    s.mode = "S";
    s.config = "io";  // no LPSU
    EXPECT_FALSE(s.validate(why));

    s = specimenSpec();
    s.gpBinary = true;  // GP binary only runs in mode T
    EXPECT_FALSE(s.validate(why));

    s = specimenSpec();
    s.injectArchRate = 1.0;  // corruption needs a seed
    EXPECT_FALSE(s.validate(why));

    s = specimenSpec();
    s.maxInsts = 0;
    EXPECT_FALSE(s.validate(why));

    s = specimenSpec();
    s.kernel.clear();  // an `xsim prog.s` run names no kernel
    EXPECT_TRUE(s.validate(why)) << why;
}

TEST(RunSpec, JsonRoundTripIsExact)
{
    RunSpec s = specimenSpec();
    s.maxInsts = 123456;
    s.deadlineMs = 2500;
    s.injectSeed = 77;
    s.injectRate = 0.05;
    s.injectArchRate = 1e-9;
    s.haveWatchdog = true;
    s.watchdogCycles = 4096;
    s.lockstep = true;
    s.maxRetries = 1;

    std::ostringstream os;
    JsonWriter w(os, /*pretty=*/false);
    w.beginObject();
    s.toJson(w);
    w.endObject();
    const RunSpec back = runSpecFromJson(jsonParse(os.str()));

    EXPECT_EQ(back.kernel, s.kernel);
    EXPECT_EQ(back.config, s.config);
    EXPECT_EQ(back.mode, s.mode);
    EXPECT_EQ(back.maxInsts, s.maxInsts);
    EXPECT_EQ(back.deadlineMs, s.deadlineMs);
    EXPECT_EQ(back.injectSeed, s.injectSeed);
    EXPECT_EQ(back.injectRate, s.injectRate) << "bit-exact";
    EXPECT_EQ(back.injectArchRate, s.injectArchRate) << "bit-exact";
    EXPECT_EQ(back.haveWatchdog, s.haveWatchdog);
    EXPECT_EQ(back.watchdogCycles, s.watchdogCycles);
    EXPECT_EQ(back.lockstep, s.lockstep);
    EXPECT_EQ(back.maxRetries, s.maxRetries);
}

// ------------------------------------------------------------- protocol

TEST(Protocol, RequestRoundTrip)
{
    Request req;
    req.op = "submit";
    req.job = specimenSpec();
    req.job.injectSeed = 5;
    req.job.injectRate = 0.02;
    const std::string line = encodeRequest(req);
    EXPECT_EQ(line.find('\n'), std::string::npos)
        << "requests are single-line";

    const Request back = parseRequest(line);
    EXPECT_EQ(back.op, "submit");
    EXPECT_EQ(back.job.kernel, req.job.kernel);
    EXPECT_EQ(back.job.injectRate, req.job.injectRate);

    EXPECT_THROW(parseRequest("{\"schema\":\"bogus\"}"), FatalError);
    EXPECT_THROW(parseRequest(
                     "{\"schema\":\"xloops-job-1\",\"op\":\"zap\"}"),
                 FatalError);
}

TEST(Protocol, OutcomeEncodingIsSingleLineAndComplete)
{
    JobOutcome o;
    o.jobId = 9;
    o.status = JobStatus::Failed;
    o.attempts = 3;
    o.error = "line one\nline two";  // embedded newline must escape
    o.errorKind = "watchdog";
    o.capsulePath = "/tmp/job-9.capsule.json";
    o.statsJson = "{\n  \"cycles\": 1\n}\n";

    const std::string line = encodeOutcome(o);
    EXPECT_EQ(line.find('\n'), std::string::npos);
    const JsonValue v = jsonParse(line);
    EXPECT_EQ(v.at("schema").asString(), "xloops-result-1");
    EXPECT_EQ(v.at("status").asString(), "failed");
    EXPECT_EQ(v.at("attempts").asU64(), 3u);
    EXPECT_EQ(v.at("error").asString(), o.error);
    EXPECT_EQ(v.at("stats").asString(), o.statsJson)
        << "the stats document survives byte-for-byte";
    EXPECT_FALSE(v.has("capsule")) << "no capsule, no field";

    o.capsule = "{\n  \"schema\": \"xloops-capsule-1\"\n}\n";
    EXPECT_EQ(jsonParse(encodeOutcome(o)).at("capsule").asString(),
              o.capsule)
        << "the capsule document survives byte-for-byte";
}

TEST(Protocol, OutcomeCarriesSpanTimings)
{
    JobOutcome o;
    o.jobId = 4;
    o.status = JobStatus::Done;
    o.attempts = 2;
    o.cached = false;
    o.queueWaitUs = 120;
    o.cacheLookupUs = 3;
    o.simUs = 4500;

    const JsonValue v = jsonParse(encodeOutcome(o));
    EXPECT_EQ(v.at("queue_wait_us").asU64(), 120u);
    EXPECT_EQ(v.at("cache_lookup_us").asU64(), 3u);
    EXPECT_EQ(v.at("sim_us").asU64(), 4500u);
    EXPECT_EQ(v.at("attempts").asU64(), 2u);
    EXPECT_FALSE(v.at("cached").asBool());
}

TEST(Protocol, MetricsAndHealthRequestsParse)
{
    EXPECT_EQ(parseRequest("{\"schema\":\"xloops-job-1\","
                           "\"op\":\"metrics\"}")
                  .op,
              "metrics");
    EXPECT_EQ(parseRequest("{\"schema\":\"xloops-job-1\","
                           "\"op\":\"health\"}")
                  .op,
              "health");
}

TEST(Protocol, MetricsResponseRoundTripsBothExpositions)
{
    // The metrics payloads embed JSON-in-JSON and multi-line
    // Prometheus text; both must survive the single-line framing.
    const std::string metricsJson =
        "{\"schema\":\"xloops-metrics-1\",\"counters\":{}}";
    const std::string prom =
        "# TYPE xloops_x_total counter\nxloops_x_total 1\n";
    const std::string line = encodeMetrics(metricsJson, prom);
    EXPECT_EQ(line.find('\n'), std::string::npos);

    const JsonValue v = jsonParse(line);
    EXPECT_EQ(v.at("status").asString(), "ok");
    EXPECT_EQ(v.at("metrics").asString(), metricsJson);
    EXPECT_EQ(v.at("prom").asString(), prom);
}

TEST(Protocol, HealthResponseCarriesEveryField)
{
    HealthInfo h;
    h.uptimeUs = 123456;
    h.queued = 2;
    h.inFlight = 5;
    h.running = 3;
    h.cacheEntries = 17;
    h.degraded = true;
    h.draining = false;

    const JsonValue v = jsonParse(encodeHealth(h));
    EXPECT_EQ(v.at("status").asString(), "ok");
    EXPECT_EQ(v.at("uptime_us").asU64(), 123456u);
    EXPECT_EQ(v.at("queued").asU64(), 2u);
    EXPECT_EQ(v.at("in_flight").asU64(), 5u);
    EXPECT_EQ(v.at("running").asU64(), 3u);
    EXPECT_EQ(v.at("cache_entries").asU64(), 17u);
    EXPECT_TRUE(v.at("degraded").asBool());
    EXPECT_FALSE(v.at("draining").asBool());
}

TEST(Protocol, LineReaderFramesAcrossReadsAndAtEnd)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    // A line longer than one 64 KiB read, two lines in one write, and
    // an unterminated rest before the peer closes.
    const std::string big(200000, 'x');
    std::thread writer([&] {
        EXPECT_TRUE(sendLine(fds[1], big));
        EXPECT_TRUE(sendLine(fds[1], "a\nb"));
        EXPECT_EQ(::write(fds[1], "rest", 4), 4);
        ::close(fds[1]);
    });
    LineReader reader(fds[0]);
    std::string line;
    ASSERT_TRUE(reader.next(line));
    EXPECT_EQ(line, big);
    ASSERT_TRUE(reader.next(line));
    EXPECT_EQ(line, "a");
    ASSERT_TRUE(reader.next(line));
    EXPECT_EQ(line, "b");
    EXPECT_FALSE(reader.atEnd());
    ASSERT_TRUE(reader.next(line));
    EXPECT_EQ(line, "rest");
    EXPECT_TRUE(reader.atEnd());
    EXPECT_FALSE(reader.next(line));
    writer.join();
    ::close(fds[0]);
}

// ----------------------------------------------------------- supervisor

SupervisorConfig
testConfig(const std::string &tag)
{
    SupervisorConfig cfg;
    cfg.workers = 1;
    cfg.retry.baseBackoffMs = 1;  // keep retry tests fast
    cfg.retry.maxBackoffMs = 2;
    cfg.artifactDir = testing::TempDir() + "/xloops_sup_" + tag;
    // TempDir persists across runs, and the journal opens O_APPEND —
    // a stale journal.jnl (or checkpoint) from a previous invocation
    // would replay as a bogus prior generation. Start hermetic.
    (void)std::system(("rm -rf " + cfg.artifactDir +
                       " && mkdir -p " + cfg.artifactDir).c_str());
    return cfg;
}

TEST(Supervisor, RunsAJobAndServesTheSecondFromCache)
{
    Supervisor sup(testConfig("cache"));
    const Admission a1 = sup.submit(specimenSpec());
    ASSERT_TRUE(a1.accepted) << a1.reason;
    const JobOutcome o1 = sup.wait(a1.jobId);
    EXPECT_EQ(o1.status, JobStatus::Done);
    EXPECT_EQ(o1.attempts, 1u);
    EXPECT_FALSE(o1.cached);
    EXPECT_FALSE(o1.statsJson.empty());

    const Admission a2 = sup.submit(specimenSpec());
    ASSERT_TRUE(a2.accepted);
    const JobOutcome o2 = sup.wait(a2.jobId);
    EXPECT_EQ(o2.status, JobStatus::Done);
    EXPECT_TRUE(o2.cached);
    EXPECT_EQ(o2.statsJson, o1.statsJson)
        << "cache hit is byte-identical to the cold run";
    EXPECT_NE(o1.cycles, 0u);
    EXPECT_EQ(o2.cycles, o1.cycles);
    EXPECT_EQ(o2.gppInsts, o1.gppInsts);
    EXPECT_EQ(sup.cache().hits(), 1u);

    // wait() handed both outcomes out and forgot the jobs.
    EXPECT_THROW(sup.status(a1.jobId), FatalError);
    EXPECT_THROW(sup.wait(a2.jobId), FatalError);
    EXPECT_FALSE(sup.cancel(a2.jobId));
}

TEST(Supervisor, RejectsAJobWithoutAKernel)
{
    Supervisor sup(testConfig("nokernel"));
    RunSpec spec = specimenSpec();
    spec.kernel.clear();
    const Admission adm = sup.submit(spec);
    EXPECT_FALSE(adm.accepted);
    EXPECT_EQ(adm.reason, "job has no kernel");
}

TEST(Supervisor, DivergenceIsNeverRetriedButAlwaysCapsuled)
{
    Supervisor sup(testConfig("div"));
    RunSpec spec = specimenSpec();
    spec.lockstep = true;
    spec.injectSeed = 1;
    spec.injectRate = 0.0;
    spec.injectArchRate = 1.0;  // certain architectural corruption
    spec.maxRetries = 3;        // must be ignored: divergence is fatal

    const Admission adm = sup.submit(spec);
    ASSERT_TRUE(adm.accepted) << adm.reason;
    const JobOutcome o = sup.wait(adm.jobId);
    EXPECT_EQ(o.status, JobStatus::Failed);
    EXPECT_EQ(o.attempts, 1u) << "divergence must not retry";
    EXPECT_EQ(o.errorKind, "divergence");
    ASSERT_FALSE(o.capsulePath.empty());

    // The outcome carries the capsule the artifact file holds.
    EXPECT_EQ(o.capsule, readFile(o.capsulePath));
    const JsonValue v = jsonParse(o.capsule);
    EXPECT_EQ(v.at("schema").asString(), "xloops-capsule-1");
}

TEST(Supervisor, RetryableFailureIsBoundedAndThenCapsuled)
{
    SupervisorConfig cfg = testConfig("retry");
    cfg.retry.maxRetries = 2;
    Supervisor sup(cfg);

    RunSpec spec = specimenSpec();
    spec.haveWatchdog = true;
    spec.watchdogCycles = 1;  // wedges instantly, every attempt

    const Admission adm = sup.submit(spec);
    ASSERT_TRUE(adm.accepted) << adm.reason;
    const JobOutcome o = sup.wait(adm.jobId);
    EXPECT_EQ(o.status, JobStatus::Failed);
    EXPECT_EQ(o.attempts, 3u) << "1 try + maxRetries, no more";
    EXPECT_EQ(o.errorKind, "watchdog");
    EXPECT_FALSE(o.capsulePath.empty())
        << "exhausted retries still leave a capsule";
    EXPECT_GE(sup.stats().retries, 2u);
}

/** A cancelled job left a JobCancelled flight event and a JobReply
 *  span, as every terminal transition does. */
bool
leftCancellationRecords(Supervisor &sup, u64 jobId)
{
    bool flight = false;
    for (const FlightEvent &ev : sup.flight().events())
        flight |= ev.kind == FlightKind::JobCancelled && ev.jobId == jobId;
    bool span = false;
    const Tracer &spans = sup.spanTracer();
    for (const TraceEvent &ev : spans.lastEvents(spans.size()))
        span |= ev.kind == TraceKind::JobReply &&
                ev.a0 == static_cast<i64>(jobId) &&
                ev.a1 == static_cast<i64>(JobStatus::Cancelled);
    return flight && span;
}

TEST(Supervisor, BoundedQueueShedsDeterministically)
{
    SupervisorConfig cfg = testConfig("shed");
    cfg.queueDepth = 1;
    cfg.startPaused = true;  // jobs queue but cannot start
    Supervisor sup(cfg);

    const Admission a1 = sup.submit(specimenSpec());
    EXPECT_TRUE(a1.accepted);
    const Admission a2 = sup.submit(specimenSpec());
    EXPECT_FALSE(a2.accepted);
    EXPECT_EQ(a2.reason, "overloaded");
    EXPECT_NE(a2.jobId, 0u) << "a shed job still has an id";
    EXPECT_THROW(sup.status(a2.jobId), FatalError)
        << "a shed submission leaves no record";
    EXPECT_EQ(sup.stats().shed, 1u);

    // Draining cancels the job still queued behind the pause gate.
    sup.drain();
    EXPECT_EQ(sup.status(a1.jobId).status, JobStatus::Cancelled);
    EXPECT_TRUE(leftCancellationRecords(sup, a1.jobId));
    EXPECT_EQ(sup.wait(a1.jobId).status, JobStatus::Cancelled);
    EXPECT_FALSE(sup.submit(specimenSpec()).accepted)
        << "a draining supervisor refuses new work";
}

TEST(Supervisor, CancelUnqueuesAJobBeforeItRuns)
{
    SupervisorConfig cfg = testConfig("cancel");
    cfg.startPaused = true;
    Supervisor sup(cfg);

    const Admission adm = sup.submit(specimenSpec());
    ASSERT_TRUE(adm.accepted);
    EXPECT_TRUE(sup.cancel(adm.jobId));
    const JobOutcome o = sup.wait(adm.jobId);
    EXPECT_EQ(o.status, JobStatus::Cancelled);
    EXPECT_EQ(o.attempts, 0u) << "never ran";
    EXPECT_TRUE(leftCancellationRecords(sup, adm.jobId));
    EXPECT_FALSE(sup.cancel(adm.jobId)) << "already terminal";

    sup.resume();
    sup.drain();
}

TEST(Supervisor, OutcomeRecordsSpanTimingsAndFlightEvents)
{
    Supervisor sup(testConfig("spans"));
    const Admission a1 = sup.submit(specimenSpec());
    ASSERT_TRUE(a1.accepted) << a1.reason;
    const JobOutcome o1 = sup.wait(a1.jobId);
    ASSERT_EQ(o1.status, JobStatus::Done);
    EXPECT_GT(o1.simUs, 0u) << "a cold run spent time simulating";

    // The warm hit skips simulation entirely: sim_us stays zero.
    const Admission a2 = sup.submit(specimenSpec());
    ASSERT_TRUE(a2.accepted);
    const JobOutcome o2 = sup.wait(a2.jobId);
    ASSERT_TRUE(o2.cached);
    EXPECT_EQ(o2.simUs, 0u) << "cache hits never simulate";

    // The flight recorder saw the whole lifecycle, in order: job 1
    // admitted, started, finished; job 2 admitted, started,
    // cache-hit, finished.
    std::vector<FlightKind> kinds;
    for (const FlightEvent &ev : sup.flight().events())
        kinds.push_back(ev.kind);
    const std::vector<FlightKind> want = {
        FlightKind::JobAdmitted, FlightKind::JobStarted,
        FlightKind::JobFinished, FlightKind::JobAdmitted,
        FlightKind::JobStarted,  FlightKind::JobCacheHit,
        FlightKind::JobFinished,
    };
    EXPECT_EQ(kinds, want);
}

TEST(Supervisor, PublishMetricsUpholdsConservation)
{
    SupervisorConfig cfg = testConfig("conserve");
    cfg.queueDepth = 1;
    cfg.startPaused = true;
    Supervisor sup(cfg);

    // One admitted job held behind the pause gate, one shed.
    const Admission a1 = sup.submit(specimenSpec());
    ASSERT_TRUE(a1.accepted);
    const Admission a2 = sup.submit(specimenSpec());
    ASSERT_FALSE(a2.accepted);
    EXPECT_EQ(a2.reason, "overloaded");

    // Mid-flight scrape: the queued job counts as in-flight.
    sup.publishMetrics();
    MetricsSnapshot s = metricsRegistry().snapshot();
    const auto invariantHolds = [&s] {
        return s.counters.at("xloops_jobs_admitted_total") ==
               s.counters.at("xloops_jobs_completed_total") +
                   s.counters.at("xloops_jobs_failed_total") +
                   s.counters.at("xloops_jobs_shed_total") +
                   s.counters.at("xloops_jobs_cancelled_total") +
                   s.gauges.at("xloops_jobs_in_flight");
    };
    EXPECT_EQ(s.counters.at("xloops_jobs_admitted_total"), 2u);
    EXPECT_EQ(s.counters.at("xloops_jobs_shed_total"), 1u);
    EXPECT_EQ(s.gauges.at("xloops_jobs_in_flight"), 1u);
    EXPECT_TRUE(invariantHolds());

    // Run to completion, scrape again: in-flight drains to zero and
    // the invariant still balances.
    sup.resume();
    (void)sup.wait(a1.jobId);
    sup.publishMetrics();
    s = metricsRegistry().snapshot();
    EXPECT_EQ(s.gauges.at("xloops_jobs_in_flight"), 0u);
    EXPECT_EQ(s.counters.at("xloops_jobs_completed_total"), 1u);
    EXPECT_TRUE(invariantHolds());

    sup.drain();
}

TEST(Supervisor, HealthReportsDegradedWhenSheddingOrDraining)
{
    SupervisorConfig cfg = testConfig("health");
    cfg.queueDepth = 1;
    cfg.startPaused = true;
    Supervisor sup(cfg);

    HealthInfo h = sup.health();
    EXPECT_FALSE(h.degraded);
    EXPECT_FALSE(h.draining);
    EXPECT_EQ(h.queued, 0u);
    EXPECT_EQ(h.inFlight, 0u);

    // A full queue is the shedding regime: degraded.
    const Admission adm = sup.submit(specimenSpec());
    ASSERT_TRUE(adm.accepted);
    h = sup.health();
    EXPECT_TRUE(h.degraded);
    EXPECT_EQ(h.queued, 1u);
    EXPECT_EQ(h.inFlight, 1u);

    sup.resume();
    (void)sup.wait(adm.jobId);
    h = sup.health();
    EXPECT_FALSE(h.degraded);
    EXPECT_GT(h.uptimeUs, 0u);

    sup.drain();
    h = sup.health();
    EXPECT_TRUE(h.draining);
    EXPECT_TRUE(h.degraded) << "draining is a degraded state";
}

// ------------------------------------------------------- crash recovery

TEST(Supervisor, RecoversJournalledJobsAfterCrash)
{
    SupervisorConfig cfg = testConfig("recover");
    cfg.journalPath = cfg.artifactDir + "/journal.jnl";

    // Fabricate a dead generation's journal: job 7 was accepted but no
    // worker ever took it; job 9 died mid-attempt; job 11 finished.
    {
        Journal j(cfg.journalPath);
        const RunSpec spec = specimenSpec();
        j.append(JournalEvent::Accepted, 7, "", 0, &spec, true);
        j.append(JournalEvent::Accepted, 9, "", 0, &spec, true);
        j.append(JournalEvent::Started, 9);
        j.append(JournalEvent::Attempt, 9, "", 1);
        j.append(JournalEvent::Accepted, 11, "", 0, &spec, true);
        j.append(JournalEvent::Started, 11);
        j.append(JournalEvent::Completed, 11, "", 1, nullptr, true);
    }

    Supervisor sup(cfg);
    // Both unfinished jobs were re-accepted under this generation's
    // ids (allocation starts at 1) in acceptance order.
    const JobOutcome o1 = sup.wait(1);
    const JobOutcome o2 = sup.wait(2);
    EXPECT_EQ(o1.status, JobStatus::Done);
    EXPECT_EQ(o2.status, JobStatus::Done);

    const SupervisorStats s = sup.stats();
    EXPECT_EQ(s.recovered, 2u) << "finished job 11 must not re-run";
    EXPECT_EQ(s.done, 2u);

    // The flight ring shows the recovery happened.
    unsigned recoveredEvents = 0;
    for (const FlightEvent &ev : sup.flight().events())
        if (ev.kind == FlightKind::JobRecovered)
            recoveredEvents++;
    EXPECT_EQ(recoveredEvents, 2u);
    sup.drain();

    // This generation's journal reaches a settled state: replaying it
    // now finds nothing pending (both re-runs reached terminal
    // records), so a third generation would recover nothing.
    const JournalRecovery rec =
        recoverPending(replayJournal(cfg.journalPath));
    EXPECT_TRUE(rec.pending.empty());
    EXPECT_EQ(rec.completed, 2u);
}

TEST(Supervisor, RecoveredJobBypassesTheAdmissionBound)
{
    SupervisorConfig cfg = testConfig("recover_full");
    cfg.journalPath = cfg.artifactDir + "/journal.jnl";
    cfg.queueDepth = 1;
    cfg.startPaused = true;

    {
        Journal j(cfg.journalPath);
        const RunSpec spec = specimenSpec();
        j.append(JournalEvent::Accepted, 1, "", 0, &spec, true);
        j.append(JournalEvent::Accepted, 2, "", 0, &spec, true);
        j.append(JournalEvent::Accepted, 3, "", 0, &spec, true);
    }

    // All three acknowledged jobs must survive even though the queue
    // only admits one — recovery force-pushes past the bound (and a
    // fresh submission now sheds, feeling their backpressure).
    Supervisor sup(cfg);
    EXPECT_EQ(sup.stats().recovered, 3u);
    EXPECT_EQ(sup.stats().queued, 3u);
    const Admission fresh = sup.submit(specimenSpec());
    EXPECT_FALSE(fresh.accepted);
    EXPECT_EQ(fresh.reason, "overloaded");

    sup.resume();
    for (u64 id = 1; id <= 3; id++)
        EXPECT_EQ(sup.wait(id).status, JobStatus::Done);
    sup.drain();
}

TEST(Supervisor, ResumesARecoveredJobFromItsCheckpoint)
{
    SupervisorConfig cfg = testConfig("resume");
    cfg.journalPath = cfg.artifactDir + "/journal.jnl";
    // Counts committed GPP instructions — specialized iterations run
    // on the LPSU, so keep this small or a short kernel halts before
    // its first checkpoint boundary.
    cfg.checkpointEveryInsts = 16;

    const RunSpec spec = specimenSpec();

    // The uninterrupted baseline: what the job's stats document must
    // be, byte for byte, no matter where the crash interrupts it.
    std::string baseline;
    {
        SupervisorConfig base = testConfig("resume_base");
        Supervisor bsup(base);
        const Admission adm = bsup.submit(spec);
        ASSERT_TRUE(adm.accepted);
        baseline = bsup.wait(adm.jobId).statsJson;
        ASSERT_FALSE(baseline.empty());
        bsup.drain();
    }

    // Capture a mid-run checkpoint exactly as the dead generation's
    // periodic sink would have left it (profiler included — its state
    // is part of the stats document).
    std::string ckpt;
    {
        RunOptions ropts;
        ropts.checkpointEvery = cfg.checkpointEveryInsts;
        ropts.checkpointSink = [&](u64, const std::string &json) {
            if (ckpt.empty())
                ckpt = json;  // keep the earliest: a mid-run state
        };
        LoopProfiler profiler;
        RunHooks hooks;
        hooks.runOptions = &ropts;
        hooks.profiler = &profiler;
        runKernel(kernelByName(spec.kernel), configs::byName(spec.config),
                  ExecMode::Specialized, false, hooks);
        ASSERT_FALSE(ckpt.empty())
            << "kernel too short for checkpointEveryInsts";
    }

    {
        std::ofstream out(cfg.artifactDir + "/job-42.ckpt.json");
        out << ckpt;
    }
    {
        Journal j(cfg.journalPath);
        j.append(JournalEvent::Accepted, 42, "", 0, &spec, true);
        j.append(JournalEvent::Started, 42);
        j.append(JournalEvent::Attempt, 42, "", 1);
    }

    Supervisor sup(cfg);
    const JobOutcome out = sup.wait(1);
    EXPECT_EQ(out.status, JobStatus::Done);
    EXPECT_EQ(out.statsJson, baseline)
        << "resume-from-checkpoint must be byte-identical to the "
           "uninterrupted run";
    EXPECT_EQ(sup.stats().recovered, 1u);
    EXPECT_EQ(sup.stats().resumed, 1u);

    unsigned resumedEvents = 0;
    for (const FlightEvent &ev : sup.flight().events())
        if (ev.kind == FlightKind::JobResumed)
            resumedEvents++;
    EXPECT_EQ(resumedEvents, 1u);
    sup.drain();
}

TEST(ResultCache, CorruptEntryIsQuarantinedAndBecomesAMiss)
{
    const std::string dir =
        testing::TempDir() + "/xloops_cache_quarantine";
    (void)std::system(("mkdir -p " + dir).c_str());

    const std::string path = dir + "/index.json";
    const u64 key = resultCacheKey(7, specimenSpec());
    {
        ResultCache cache(8);
        cache.insert(key, "{\"cycles\": 123}\n");
        cache.saveIndex(path);
    }

    // Rot one byte of the stored result text on disk.
    std::string text;
    {
        std::ifstream in(path);
        std::ostringstream ss;
        ss << in.rdbuf();
        text = ss.str();
    }
    const size_t at = text.find("123");
    ASSERT_NE(at, std::string::npos);
    text[at] = '9';
    {
        std::ofstream out(path);
        out << text;
    }

    ResultCache restored(8);
    restored.setQuarantineDir(dir);
    u64 hookKey = 0;
    restored.setCorruptionHook(
        [&](u64 k, const std::string &) { hookKey = k; });
    EXPECT_EQ(restored.loadIndex(path), 0u)
        << "the rotted entry must not load";
    EXPECT_EQ(restored.corruptions(), 1u);
    EXPECT_EQ(hookKey, key);
    std::string out;
    EXPECT_FALSE(restored.lookup(key, out))
        << "a corrupt entry is a miss (re-simulate), never an answer";
}

TEST(ResultCache, LegacyPlainStringIndexEntriesStillLoad)
{
    // Pre-durability indexes stored entries as bare strings; they
    // must keep loading (and gain checksums) rather than strand a
    // fleet's warm caches on upgrade.
    const std::string path =
        testing::TempDir() + "/xloops_cache_legacy.json";
    const u64 key = resultCacheKey(3, specimenSpec());
    const std::string doc = "{\"cycles\": 5}\n";
    {
        std::ofstream out(path);
        JsonWriter w(out, /*pretty=*/true);
        w.beginObject();
        w.field("schema", "xloops-cache-1");
        w.field("num_entries", 1);
        w.key("entries").beginObject();
        w.key(strf("0x", std::hex, key));
        w.value(doc);
        w.endObject();
        w.endObject();
    }
    ResultCache cache(8);
    EXPECT_EQ(cache.loadIndex(path), 1u);
    std::string out;
    ASSERT_TRUE(cache.lookup(key, out));
    EXPECT_EQ(out, doc);
}

TEST(ResultCache, UnreadableIndexIsAColdStartNotACrash)
{
    const std::string path =
        testing::TempDir() + "/xloops_cache_torn.json";
    {
        std::ofstream out(path);
        out << "{\"schema\": \"xloops-cache-1\", \"entr";  // torn write
    }
    ResultCache cache(8);
    EXPECT_EQ(cache.loadIndex(path), 0u)
        << "a torn index must not keep the daemon down";
    EXPECT_EQ(cache.corruptions(), 1u);
}

// A preset stop flag surfaces as the matching SimError kind through a
// full kernel run — the mechanism the service deadline watchdog and
// the xsim signal handlers both rely on.
TEST(StopFlag, CauseSelectsTheSimErrorKindAndExitCode)
{
    const std::atomic<u32> deadline{
        static_cast<u32>(StopCause::Deadline)};
    RunOptions ropts;
    ropts.stopFlag = &deadline;
    RunHooks hooks;
    hooks.runOptions = &ropts;
    try {
        runKernel(kernelByName("rgb2cmyk-uc"), configs::byName("io+x"),
                  ExecMode::Specialized, false, hooks);
        FAIL() << "expected a SimError";
    } catch (const SimError &err) {
        EXPECT_EQ(err.kind(), SimErrorKind::Deadline);
        EXPECT_EQ(err.exitCode(), 3);
    }

    const std::atomic<u32> interrupted{
        static_cast<u32>(StopCause::Interrupted)};
    ropts.stopFlag = &interrupted;
    try {
        runKernel(kernelByName("rgb2cmyk-uc"), configs::byName("io+x"),
                  ExecMode::Specialized, false, hooks);
        FAIL() << "expected a SimError";
    } catch (const SimError &err) {
        EXPECT_EQ(err.kind(), SimErrorKind::Interrupted);
        EXPECT_EQ(err.exitCode(), 6) << "the dedicated interrupt code";
    }
}

} // namespace
} // namespace xloops
