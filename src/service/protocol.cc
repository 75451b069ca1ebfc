#include "service/protocol.h"

#include <functional>
#include <sstream>

#include "common/json.h"
#include "common/log.h"

namespace xloops {

namespace {

constexpr const char *jobSchema = "xloops-job-1";
constexpr const char *resultSchema = "xloops-result-1";

/** Every response line starts the same way. */
void
beginResult(JsonWriter &w, const char *status)
{
    w.beginObject();
    w.field("schema", resultSchema);
    w.field("status", status);
}

std::string
oneLine(const std::function<void(JsonWriter &)> &fill)
{
    std::ostringstream os;
    JsonWriter w(os, /*pretty=*/false);
    fill(w);
    return os.str();
}

} // namespace

Request
parseRequest(const std::string &line)
{
    const JsonValue v = jsonParse(line);
    if (!v.has("schema") || v.at("schema").asString() != jobSchema)
        fatal(strf("request is not ", jobSchema));
    Request req;
    req.op = v.at("op").asString();
    if (req.op == "submit") {
        req.job = runSpecFromJson(v.at("job"));
    } else if (req.op == "status" || req.op == "capsule") {
        req.jobId = v.at("id").asU64();
    } else if (req.op != "ping" && req.op != "stats" &&
               req.op != "metrics" && req.op != "health" &&
               req.op != "drain") {
        fatal("unknown op '" + req.op + "'");
    }
    return req;
}

std::string
encodeRequest(const Request &req)
{
    return oneLine([&](JsonWriter &w) {
        w.beginObject();
        w.field("schema", jobSchema);
        w.field("op", req.op);
        if (req.op == "submit") {
            w.key("job").beginObject();
            req.job.toJson(w);
            w.endObject();
        } else if (req.op == "status" || req.op == "capsule") {
            w.field("id", req.jobId);
        }
        w.endObject();
    });
}

std::string
encodeOutcome(const JobOutcome &outcome)
{
    return oneLine([&](JsonWriter &w) {
        beginResult(w, jobStatusName(outcome.status));
        w.field("id", outcome.jobId);
        w.field("attempts", outcome.attempts);
        w.field("cached", outcome.cached);
        if (!outcome.error.empty())
            w.field("error", outcome.error);
        if (!outcome.errorKind.empty())
            w.field("error_kind", outcome.errorKind);
        if (!outcome.capsulePath.empty())
            w.field("capsule_path", outcome.capsulePath);
        w.field("cycles", outcome.cycles);
        w.field("gpp_insts", outcome.gppInsts);
        // Span timings: with attempts and cached above, these answer
        // "why was this job slow" from the reply alone.
        w.field("queue_wait_us", outcome.queueWaitUs);
        w.field("cache_lookup_us", outcome.cacheLookupUs);
        w.field("sim_us", outcome.simUs);
        // The canonical "xloops-stats-1" document, embedded as an
        // escaped string so the response stays one line and a hit is
        // byte-for-byte what the cold run wrote.
        if (!outcome.statsJson.empty())
            w.field("stats", outcome.statsJson);
        w.endObject();
    });
}

std::string
encodeShed(u64 jobId)
{
    return oneLine([&](JsonWriter &w) {
        beginResult(w, "overloaded");
        w.field("id", jobId);
        w.field("error", "queue full: job shed by admission control");
        w.endObject();
    });
}

std::string
encodeError(const std::string &reason)
{
    return oneLine([&](JsonWriter &w) {
        beginResult(w, "invalid");
        w.field("error", reason);
        w.endObject();
    });
}

std::string
encodeOk()
{
    return oneLine([&](JsonWriter &w) {
        beginResult(w, "ok");
        w.endObject();
    });
}

std::string
encodeStats(const SupervisorStats &stats)
{
    return oneLine([&](JsonWriter &w) {
        beginResult(w, "ok");
        w.field("submitted", stats.submitted);
        w.field("done", stats.done);
        w.field("failed", stats.failed);
        w.field("shed", stats.shed);
        w.field("cancelled", stats.cancelled);
        w.field("retries", stats.retries);
        w.field("cache_hits", stats.cacheHits);
        w.field("cache_misses", stats.cacheMisses);
        w.field("queued", stats.queued);
        w.field("running", stats.running);
        w.field("recovered", stats.recovered);
        w.field("resumed", stats.resumed);
        w.endObject();
    });
}

std::string
encodeMetrics(const std::string &metricsJson, const std::string &promText)
{
    return oneLine([&](JsonWriter &w) {
        beginResult(w, "ok");
        w.field("metrics", metricsJson);
        w.field("prom", promText);
        w.endObject();
    });
}

std::string
encodeHealth(const HealthInfo &health)
{
    return oneLine([&](JsonWriter &w) {
        beginResult(w, "ok");
        w.field("uptime_us", health.uptimeUs);
        w.field("queued", health.queued);
        w.field("running", health.running);
        w.field("in_flight", health.inFlight);
        w.field("cache_entries", health.cacheEntries);
        w.field("degraded", health.degraded);
        w.field("draining", health.draining);
        w.endObject();
    });
}

std::string
encodeCapsule(u64 jobId, const std::string &capsule)
{
    return oneLine([&](JsonWriter &w) {
        beginResult(w, "ok");
        w.field("id", jobId);
        w.field("capsule", capsule);
        w.endObject();
    });
}

} // namespace xloops
