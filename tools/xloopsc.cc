/**
 * @file
 * xloopsc — command-line client for the xloopsd daemon.
 *
 * Submits one job (synchronously: the response is the terminal
 * outcome) or sends a control request. The job knobs are xsim's own
 * rows (runSpecFlags in system/run_spec.h) plus the service-only
 * --gp, --max-insts, --deadline-ms and --max-retries, so anything
 * reproducible from the CLI is submittable as a job and means the
 * same thing (a seed without a rate injects at the same default).
 *
 * Exit codes: 0 job done (or control ok / healthy), 1 user/connection
 * error (daemon unreachable), 2 job failed (the reply carries its
 * capsule; --capsule-out saves it), 3 job cancelled, 4 job shed by
 * admission control ("overloaded"), 5 daemon degraded (`xloopsc
 * health`: shedding or draining).
 */

#include <algorithm>
#include <climits>
#include <cstdio>
#include <fstream>
#include <string>

#include "common/cli.h"
#include "common/json.h"
#include "common/log.h"
#include "common/serialize.h"
#include "service/client.h"
#include "service/protocol.h"
#include "system/run_spec.h"

using namespace xloops;

namespace {

int
exitCodeFor(const std::string &status)
{
    if (status == "done" || status == "ok")
        return 0;
    if (status == "cancelled")
        return 3;
    if (status == "overloaded")
        return 4;
    if (status == "invalid")
        return 1;
    return 2;  // failed (or an unexpected non-terminal state)
}

void
writeFileOrDie(const std::string &path, const std::string &text)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot write " + path);
    out << text;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string socketPath = "xloopsd.sock";
    unsigned connectRetryMs = 2000;
    std::string statsOut;
    std::string capsuleOut;
    std::string metricsOut;
    bool promText = false;
    Request req;
    req.op = "";

    // A control request is a row that only names its op.
    const auto op = [&req](const char *name) {
        return [&req, name](const std::string &) { req.op = name; };
    };
    cli::Command cmd{
        "xloopsc",
        "[metrics|health] [options]",
        {
            cli::option("--socket", "<path>",
                        "daemon socket (default xloopsd.sock)", socketPath),
            cli::option("--connect-retry-ms", "<n>",
                        "retry a refused/missing socket for up to n ms "
                        "(default 2000; rides through daemon restarts; "
                        "0 = fail fast)",
                        connectRetryMs),
            {"--ping", "", "control: liveness probe", op("ping")},
            {"--stats", "", "control: print server counters", op("stats")},
            {"--metrics", "",
             "control (or the bare word metrics): scrape the telemetry "
             "registry (xloops-metrics-1)",
             op("metrics")},
            cli::toggle("--prom",
                        "with metrics: print the Prometheus text "
                        "exposition",
                        promText),
            cli::option("--metrics-out", "<file>",
                        "with metrics: write the JSON snapshot",
                        metricsOut),
            {"--health", "",
             "control (or the bare word health): one-shot health probe "
             "(exit 0 healthy, 5 degraded, 1 unreachable)",
             op("health")},
            {"--drain", "", "control: ask the daemon to shut down "
                            "gracefully",
             op("drain")},
            {"--status", "<id>",
             "control: outcome snapshot of a job still in flight",
             [&req](const std::string &id) {
                 req.op = "status";
                 req.jobId = parseU64(id, "--status");
             }},
        }};
    // Job submission (synchronous): the run's own rows, then the
    // service-only ones, then the outputs.
    for (cli::Flag &f : runSpecFlags(req.job))
        cmd.flags.push_back(std::move(f));
    cmd.flags.insert(
        cmd.flags.end(),
        {
            cli::toggle("--gp",
                        "run the serialized GP-ISA binary (mode T)",
                        req.job.gpBinary),
            cli::option("--max-insts", "<n>", "per-job instruction valve",
                        req.job.maxInsts),
            cli::option("--deadline-ms", "<n>",
                        "per-job wall-clock deadline", req.job.deadlineMs),
            {"--max-retries", "<n>",
             "per-job retry budget (caps the server's)",
             [&req](const std::string &v) {
                 req.job.maxRetries = static_cast<int>(
                     std::min<u64>(parseU64(v, "--max-retries"), INT_MAX));
             }},
            cli::option("--stats-out", "<file>",
                        "write the job's stats document", statsOut),
            cli::option("--capsule-out", "<file>",
                        "write the capsule of a failed job", capsuleOut),
        });
    cmd.epilog = "\nExit codes: 0 done/ok/healthy, 1 user or connection "
                 "error,\n2 job failed, 3 job cancelled, 4 overloaded (job "
                 "shed),\n5 degraded (health: shedding or draining).\n";
    cmd.positional = [&](const std::string &word) {
        if (word != "metrics" && word != "health")
            cli::usageError(cmd, "unknown command '" + word + "'");
        req.op = word;
    };

    try {
        const cli::Parsed given = cli::parseCommandLine(cmd, argc, argv);
        finishRunSpecFlags(req.job, given);

        if (req.op.empty()) {
            if (!given.has("-k"))
                cli::usageError(cmd,
                                "nothing to do: give -k or a control "
                                "request");
            req.op = "submit";
        }

        ServiceClient client(socketPath, connectRetryMs);
        const std::string responseLine =
            client.request(encodeRequest(req));
        const JsonValue v = jsonParse(responseLine);
        const std::string status = v.at("status").asString();

        if (req.op == "ping" || req.op == "drain") {
            std::printf("%s\n", status.c_str());
            return exitCodeFor(status);
        }
        if (req.op == "stats") {
            std::printf("%s\n", responseLine.c_str());
            return exitCodeFor(status);
        }
        if (req.op == "metrics") {
            if (status != "ok") {
                std::fprintf(stderr, "%s\n",
                             v.has("error")
                                 ? v.at("error").asString().c_str()
                                 : status.c_str());
                return 1;
            }
            const std::string json = v.at("metrics").asString();
            if (!metricsOut.empty()) {
                writeFileOrDie(metricsOut, json);
                std::printf("metrics: %s\n", metricsOut.c_str());
            }
            if (promText)
                std::printf("%s", v.at("prom").asString().c_str());
            else if (metricsOut.empty())
                std::printf("%s\n", json.c_str());
            return 0;
        }
        if (req.op == "health") {
            if (status != "ok") {
                std::fprintf(stderr, "%s\n",
                             v.has("error")
                                 ? v.at("error").asString().c_str()
                                 : status.c_str());
                return 1;
            }
            const bool degraded = v.at("degraded").asBool();
            std::printf("%s uptime_us=%llu queued=%llu running=%llu "
                        "in_flight=%llu cache_entries=%llu%s\n",
                        degraded ? "degraded" : "healthy",
                        static_cast<unsigned long long>(
                            v.at("uptime_us").asU64()),
                        static_cast<unsigned long long>(
                            v.at("queued").asU64()),
                        static_cast<unsigned long long>(
                            v.at("running").asU64()),
                        static_cast<unsigned long long>(
                            v.at("in_flight").asU64()),
                        static_cast<unsigned long long>(
                            v.at("cache_entries").asU64()),
                        v.at("draining").asBool() ? " (draining)"
                                                  : "");
            return degraded ? 5 : 0;
        }
        // submit / status: a job outcome line.
        std::printf("job %llu: %s",
                    static_cast<unsigned long long>(
                        v.has("id") ? v.at("id").asU64() : 0),
                    status.c_str());
        if (v.has("cached") && v.at("cached").asBool())
            std::printf(" (cached)");
        if (v.has("attempts"))
            std::printf(" (attempts %llu)",
                        static_cast<unsigned long long>(
                            v.at("attempts").asU64()));
        std::printf("\n");
        if (v.has("error"))
            std::fprintf(stderr, "%s\n",
                         v.at("error").asString().c_str());
        if (v.has("capsule_path"))
            std::fprintf(stderr, "capsule: %s\n",
                         v.at("capsule_path").asString().c_str());
        if (!statsOut.empty() && v.has("stats")) {
            writeFileOrDie(statsOut, v.at("stats").asString());
            std::printf("stats: %s\n", statsOut.c_str());
        }
        if (!capsuleOut.empty() && v.has("capsule")) {
            writeFileOrDie(capsuleOut, v.at("capsule").asString());
            std::printf("capsule: %s\n", capsuleOut.c_str());
        }
        return exitCodeFor(status);
    } catch (const FatalError &err) {
        std::fprintf(stderr, "xloopsc: %s\n", err.what());
        return 1;
    } catch (const PanicError &err) {
        std::fprintf(stderr, "xloopsc: %s\n", err.what());
        return 4;
    }
}
