/**
 * @file
 * The daemon's wire protocol: newline-delimited JSON over a Unix
 * socket. One request line ("xloops-job-1") gets one response line
 * ("xloops-result-1"); both are single-line documents so framing is
 * trivial and any language with a JSON library and a socket is a
 * client. docs/SERVICE.md is the normative reference.
 *
 * Requests:  {"schema":"xloops-job-1","op":<op>, ...}
 *   op "ping"    — liveness probe
 *   op "submit"  — {"job":{...RunSpec...}}; synchronous (the
 *                  response is the terminal outcome)
 *   op "status"  — {"id":N}: non-blocking outcome snapshot
 *   op "capsule" — {"id":N}: download a failed job's capsule
 *   op "stats"   — server counters
 *   op "metrics" — full telemetry scrape ("xloops-metrics-1" JSON +
 *                  Prometheus text exposition)
 *   op "health"  — one-shot health probe (uptime, queue, in-flight)
 *   op "drain"   — begin graceful shutdown
 *
 * Responses: {"schema":"xloops-result-1","status":<status>, ...}
 *   status is a JobStatus name, or "ok" (ping/stats/metrics/health/
 *   drain), "overloaded" (shed by admission control), or "invalid"
 *   (malformed request / unknown id / rejected spec).
 */

#ifndef XLOOPS_SERVICE_PROTOCOL_H
#define XLOOPS_SERVICE_PROTOCOL_H

#include <string>

#include "service/job.h"
#include "service/supervisor.h"

namespace xloops {

/** A decoded request line. */
struct Request
{
    std::string op;
    RunSpec job;      ///< meaningful when op == "submit"
    u64 jobId = 0;    ///< meaningful for status / capsule
};

/** Parse one request line; throws FatalError on malformed input
 *  (wrong schema, unknown op, missing fields). */
Request parseRequest(const std::string &line);

/** Encode a request (client side). */
std::string encodeRequest(const Request &req);

/** One-line "xloops-result-1" for a job outcome. The stats document
 *  is embedded verbatim under "stats" (parsed, so the line stays
 *  well-formed JSON; re-serialization is byte-stable). */
std::string encodeOutcome(const JobOutcome &outcome);

/** "overloaded" response (admission control shed the job). */
std::string encodeShed(u64 jobId);

/** "invalid" response with a reason. */
std::string encodeError(const std::string &reason);

/** "ok" response to ping / drain. */
std::string encodeOk();

/** "ok" response carrying server counters. */
std::string encodeStats(const SupervisorStats &stats);

/** "ok" response carrying a telemetry scrape: the "xloops-metrics-1"
 *  document (escaped string under "metrics") plus the Prometheus text
 *  exposition (escaped string under "prom"). */
std::string encodeMetrics(const std::string &metricsJson,
                          const std::string &promText);

/** "ok" response carrying a health probe. */
std::string encodeHealth(const HealthInfo &health);

/** "ok" response carrying a capsule document (escaped string). */
std::string encodeCapsule(u64 jobId, const std::string &capsule);

} // namespace xloops

#endif // XLOOPS_SERVICE_PROTOCOL_H
