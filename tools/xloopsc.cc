/**
 * @file
 * xloopsc — command-line client for the xloopsd daemon.
 *
 * Submits one job (synchronously: the response is the terminal
 * outcome) or sends a control request. The job knobs mirror `xsim`
 * so anything reproducible from the CLI is submittable as a job.
 *
 * Exit codes: 0 job done (or control ok / healthy), 1 user/connection
 * error (daemon unreachable), 2 job failed (capsule downloadable with
 * --capsule-out), 3 job cancelled, 4 job shed by admission control
 * ("overloaded"), 5 daemon degraded (`xloopsc health`: shedding or
 * draining).
 */

#include <algorithm>
#include <climits>
#include <cstdio>
#include <fstream>
#include <string>

#include "common/json.h"
#include "common/log.h"
#include "common/serialize.h"
#include "service/client.h"
#include "service/protocol.h"

using namespace xloops;

namespace {

void
printUsage(std::FILE *out)
{
    std::fprintf(
        out,
        "usage: xloopsc [metrics|health] [options]\n"
        "  --socket <path>        daemon socket (default "
        "xloopsd.sock)\n"
        "  --connect-retry-ms <n> retry a refused/missing socket for "
        "up to n ms\n"
        "                         (default 2000; rides through daemon "
        "restarts; 0 = fail fast)\n"
        "control requests:\n"
        "  --ping                 liveness probe\n"
        "  --stats                print server counters\n"
        "  metrics | --metrics    scrape the telemetry registry "
        "(xloops-metrics-1)\n"
        "  --prom                 with metrics: print the Prometheus "
        "text exposition\n"
        "  --metrics-out <file>   with metrics: write the JSON "
        "snapshot\n"
        "  health | --health      one-shot health probe (exit 0 "
        "healthy, 5 degraded,\n"
        "                         1 unreachable)\n"
        "  --drain                ask the daemon to shut down "
        "gracefully\n"
        "  --status <id>          outcome snapshot of a job\n"
        "  --capsule <id>         download a failed job's capsule\n"
        "job submission (synchronous):\n"
        "  -k <kernel>            kernel to simulate\n"
        "  -c <config>            system configuration (default "
        "io+x)\n"
        "  -m <T|S|A>             execution mode (default S)\n"
        "  --gp                   run the serialized GP-ISA binary "
        "(mode T)\n"
        "  --max-insts <n>        per-job instruction valve\n"
        "  --deadline-ms <n>      per-job wall-clock deadline\n"
        "  --inject-seed <n>      fault-injection RNG seed\n"
        "  --inject-rate <p>      per-opportunity fault probability\n"
        "  --inject-arch-rate <p> architectural corruption "
        "probability\n"
        "  --watchdog-cycles <n>  LPSU no-commit watchdog\n"
        "  --lockstep             differential lockstep "
        "verification\n"
        "  --max-retries <n>      per-job retry budget (caps the "
        "server's)\n"
        "outputs:\n"
        "  --stats-out <file>     write the job's stats document\n"
        "  --capsule-out <file>   write the capsule of a failed "
        "job\n"
        "  --help                 print this usage and exit\n"
        "\n"
        "Exit codes: 0 done/ok/healthy, 1 user or connection error,\n"
        "2 job failed, 3 job cancelled, 4 overloaded (job shed),\n"
        "5 degraded (health: shedding or draining).\n");
}

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
    bool haveJob = false;

    try {
        for (int i = 1; i < argc; i++) {
            const std::string arg = argv[i];
            auto next = [&]() -> std::string {
                if (i + 1 >= argc) {
                    printUsage(stderr);
                    fatal(arg + " needs an argument");
                }
                return argv[++i];
            };
            const auto nextU64 = [&] { return parseU64(next(), arg); };
            const auto nextDouble = [&] { return parseDouble(next(), arg); };
            if (arg == "--socket")
                socketPath = next();
            else if (arg == "--connect-retry-ms")
                connectRetryMs = static_cast<unsigned>(nextU64());
            else if (arg == "--ping")
                req.op = "ping";
            else if (arg == "--stats")
                req.op = "stats";
            else if (arg == "metrics" || arg == "--metrics")
                req.op = "metrics";
            else if (arg == "health" || arg == "--health")
                req.op = "health";
            else if (arg == "--prom")
                promText = true;
            else if (arg == "--metrics-out")
                metricsOut = next();
            else if (arg == "--drain")
                req.op = "drain";
            else if (arg == "--status") {
                req.op = "status";
                req.jobId = nextU64();
            } else if (arg == "--capsule") {
                req.op = "capsule";
                req.jobId = nextU64();
            } else if (arg == "-k") {
                req.job.kernel = next();
                haveJob = true;
            } else if (arg == "-c")
                req.job.config = next();
            else if (arg == "-m")
                req.job.mode = next();
            else if (arg == "--gp")
                req.job.gpBinary = true;
            else if (arg == "--max-insts")
                req.job.maxInsts = nextU64();
            else if (arg == "--deadline-ms")
                req.job.deadlineMs = nextU64();
            else if (arg == "--inject-seed")
                req.job.injectSeed = nextU64();
            else if (arg == "--inject-rate")
                req.job.injectRate = nextDouble();
            else if (arg == "--inject-arch-rate")
                req.job.injectArchRate = nextDouble();
            else if (arg == "--watchdog-cycles") {
                req.job.watchdogCycles = nextU64();
                req.job.haveWatchdog = true;
            } else if (arg == "--lockstep")
                req.job.lockstep = true;
            else if (arg == "--max-retries")
                req.job.maxRetries = static_cast<int>(
                    std::min<u64>(nextU64(), INT_MAX));
            else if (arg == "--stats-out")
                statsOut = next();
            else if (arg == "--capsule-out")
                capsuleOut = next();
            else if (arg == "--help" || arg == "-h") {
                printUsage(stdout);
                return 0;
            } else {
                printUsage(stderr);
                fatal("unknown option '" + arg + "'");
            }
        }

        if (req.op.empty()) {
            if (!haveJob) {
                printUsage(stderr);
                fatal("nothing to do: give -k or a control request");
            }
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
        if (req.op == "capsule") {
            if (status != "ok") {
                std::fprintf(stderr, "%s\n",
                             v.at("error").asString().c_str());
                return 1;
            }
            const std::string text = v.at("capsule").asString();
            if (capsuleOut.empty())
                std::printf("%s", text.c_str());
            else {
                writeFileOrDie(capsuleOut, text);
                std::printf("capsule: %s\n", capsuleOut.c_str());
            }
            return 0;
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
        if (!capsuleOut.empty() && v.has("id") &&
            (status == "failed" || status == "cancelled")) {
            // Fetch the capsule over the same connection.
            Request creq;
            creq.op = "capsule";
            creq.jobId = v.at("id").asU64();
            const JsonValue cv =
                jsonParse(client.request(encodeRequest(creq)));
            if (cv.at("status").asString() == "ok") {
                writeFileOrDie(capsuleOut,
                               cv.at("capsule").asString());
                std::printf("capsule: %s\n", capsuleOut.c_str());
            }
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
