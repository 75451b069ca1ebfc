/**
 * @file
 * xloopsd — the simulation-as-a-service daemon.
 *
 * Serves "xloops-job-1" requests over a Unix-domain socket (see
 * docs/SERVICE.md): jobs are validated, admission-controlled against
 * a bounded queue (overload = explicit "overloaded" response, never
 * unbounded buffering), supervised with per-job instruction valves
 * and wall-clock deadlines, retried with exponential backoff when
 * the failure is a wedged schedule, capsuled when it is not, and
 * served from a content-addressed result cache when the identical
 * cell was already simulated (hits are byte-identical to cold runs).
 *
 * SIGINT/SIGTERM drain gracefully: stop accepting, cancel the
 * backlog, finish running jobs, persist the cache index, exit 0.
 */

#include <atomic>
#include <csignal>
#include <cstdio>

#include "common/cli.h"
#include "common/log.h"
#include "service/server.h"

using namespace xloops;

namespace {

std::atomic<u32> shutdownFlag{0};

void
onSignal(int)
{
    shutdownFlag.store(1);
}

} // namespace

int
main(int argc, char **argv)
{
    ServerConfig cfg;
    SupervisorConfig &sup = cfg.supervisor;
    const cli::Command cmd{
        "xloopsd",
        "[options]",
        {
            cli::option("--socket", "<path>",
                        "Unix socket path (default xloopsd.sock)",
                        cfg.socketPath),
            cli::option("--workers", "<n>",
                        "worker threads (default: hardware concurrency)",
                        sup.workers),
            cli::option("--queue-depth", "<n>",
                        "admission bound; beyond it jobs are shed "
                        "(default 64)",
                        sup.queueDepth),
            cli::option("--artifact-dir", "<dir>",
                        "where job capsules are written (default .)",
                        sup.artifactDir),
            cli::option("--cache-index", "<file>",
                        "persist/restore the result cache index",
                        cfg.cacheIndexPath),
            cli::option("--cache-entries", "<n>",
                        "result cache capacity (default 4096)",
                        sup.cacheEntries),
            cli::option("--journal", "<file>",
                        "write-ahead job journal; acknowledged jobs "
                        "survive kill -9",
                        sup.journalPath),
            {"--no-recover", "",
             "do not replay the journal at startup (forensics)",
             [&sup](const std::string &) { sup.recover = false; }},
            cli::option("--ckpt-every-insts", "<n>",
                        "checkpoint attempt-0 runs every n committed GPP "
                        "insts so recovery resumes long jobs mid-flight "
                        "(default off)",
                        sup.checkpointEveryInsts),
            cli::option("--max-retries", "<n>",
                        "retry budget for retryable failures (default 3)",
                        sup.retry.maxRetries),
            cli::option("--deadline-ms", "<n>",
                        "default per-job wall-clock deadline (default "
                        "30000)",
                        sup.defaultDeadlineMs),
            cli::option("--metrics-log", "<file>",
                        "append one xloops-metrics-1 snapshot line per "
                        "interval",
                        cfg.metricsLogPath),
            cli::option("--metrics-interval-ms", "<n>",
                        "metrics log cadence (default 1000)",
                        cfg.metricsIntervalMs),
            cli::option("--flight-dump", "<file>",
                        "write the flight-recorder dump on "
                        "drain/SIGTERM",
                        cfg.flightDumpPath),
            cli::option("--trace", "<file>",
                        "write per-job spans as Chrome trace JSON on "
                        "drain",
                        cfg.tracePath),
        },
        "\nSIGINT/SIGTERM drain gracefully (finish running jobs,\n"
        "persist the cache index, exit 0). Protocol reference:\n"
        "docs/SERVICE.md.\n"};
    try {
        cli::parseCommandLine(cmd, argc, argv);

        struct sigaction sa{};
        sa.sa_handler = onSignal;
        sigemptyset(&sa.sa_mask);
        sigaction(SIGINT, &sa, nullptr);
        sigaction(SIGTERM, &sa, nullptr);
        // A client vanishing mid-response must not kill the daemon.
        signal(SIGPIPE, SIG_IGN);

        return runServer(cfg, shutdownFlag);
    } catch (const FatalError &err) {
        std::fprintf(stderr, "xloopsd: %s\n", err.what());
        return 1;
    } catch (const PanicError &err) {
        std::fprintf(stderr, "xloopsd: %s\n", err.what());
        return 4;
    }
}
