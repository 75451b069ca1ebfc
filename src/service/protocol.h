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
 *   op "status"  — {"id":N}: non-blocking outcome snapshot of a job
 *                  whose reply has not been sent yet
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

/**
 * Newline framing on a connected socket, for both ends. Each read()
 * takes whatever has arrived, up to 64 KiB; the bytes after a line
 * wait here for the next call.
 */
class LineReader
{
  public:
    explicit LineReader(int fd = -1) : fd(fd) {}

    /**
     * Move the next line, without its '\n', into @p line. At end of
     * stream an unterminated rest still counts as a line, and atEnd()
     * turns true. False at end of stream with nothing left, on a read
     * error (errno says which), or when 64 MiB arrive without a '\n'
     * (errno EMSGSIZE).
     */
    bool next(std::string &line);

    /** The peer has closed its end. */
    bool atEnd() const { return ended; }

  private:
    int fd;
    std::string pending;  ///< read, not yet handed out
    bool ended = false;
};

/** Send @p line and its '\n' in full; false on an error (errno says
 *  which). MSG_NOSIGNAL: a peer that went away is an error, not a
 *  process-fatal SIGPIPE. */
bool sendLine(int fd, const std::string &line);

/** A decoded request line. */
struct Request
{
    std::string op;
    RunSpec job;      ///< meaningful when op == "submit"
    u64 jobId = 0;    ///< meaningful for status
};

/** Parse one request line; throws FatalError on malformed input
 *  (wrong schema, unknown op, missing fields). */
Request parseRequest(const std::string &line);

/** Encode a request (client side). */
std::string encodeRequest(const Request &req);

/** One-line "xloops-result-1" for a job outcome. The stats document
 *  and a failure's capsule document are embedded verbatim, as escaped
 *  strings, under "stats" and "capsule". */
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

} // namespace xloops

#endif // XLOOPS_SERVICE_PROTOCOL_H
