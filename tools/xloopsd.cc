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
#include <cstring>
#include <string>

#include "common/log.h"
#include "common/serialize.h"
#include "common/types.h"
#include "service/server.h"

using namespace xloops;

namespace {

std::atomic<u32> shutdownFlag{0};

void
onSignal(int)
{
    shutdownFlag.store(1);
}

void
printUsage(std::FILE *out)
{
    std::fprintf(
        out,
        "usage: xloopsd [options]\n"
        "  --socket <path>       Unix socket path (default "
        "xloopsd.sock)\n"
        "  --workers <n>         worker threads (default: hardware "
        "concurrency)\n"
        "  --queue-depth <n>     admission bound; beyond it jobs are "
        "shed (default 64)\n"
        "  --artifact-dir <dir>  where job capsules are written "
        "(default .)\n"
        "  --cache-index <file>  persist/restore the result cache "
        "index\n"
        "  --cache-entries <n>   result cache capacity (default "
        "4096)\n"
        "  --journal <file>      write-ahead job journal; acknowledged "
        "jobs survive kill -9\n"
        "  --no-recover          do not replay the journal at startup "
        "(forensics)\n"
        "  --ckpt-every-insts <n>  checkpoint attempt-0 runs every n "
        "committed GPP insts\n"
        "                        so recovery resumes long jobs "
        "mid-flight (default off)\n"
        "  --max-retries <n>     retry budget for retryable failures "
        "(default 3)\n"
        "  --deadline-ms <n>     default per-job wall-clock deadline "
        "(default 30000)\n"
        "  --metrics-log <file>  append one xloops-metrics-1 snapshot "
        "line per interval\n"
        "  --metrics-interval-ms <n>  metrics log cadence (default "
        "1000)\n"
        "  --flight-dump <file>  write the flight-recorder dump on "
        "drain/SIGTERM\n"
        "  --trace <file>        write per-job spans as Chrome trace "
        "JSON on drain\n"
        "  --help                print this usage and exit\n"
        "\n"
        "SIGINT/SIGTERM drain gracefully (finish running jobs,\n"
        "persist the cache index, exit 0). Protocol reference:\n"
        "docs/SERVICE.md.\n");
}

} // namespace

int
main(int argc, char **argv)
{
    ServerConfig cfg;
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
            if (arg == "--socket")
                cfg.socketPath = next();
            else if (arg == "--workers")
                cfg.supervisor.workers = static_cast<unsigned>(nextU64());
            else if (arg == "--queue-depth")
                cfg.supervisor.queueDepth = nextU64();
            else if (arg == "--artifact-dir")
                cfg.supervisor.artifactDir = next();
            else if (arg == "--cache-index")
                cfg.cacheIndexPath = next();
            else if (arg == "--cache-entries")
                cfg.supervisor.cacheEntries = nextU64();
            else if (arg == "--journal")
                cfg.supervisor.journalPath = next();
            else if (arg == "--no-recover")
                cfg.supervisor.recover = false;
            else if (arg == "--ckpt-every-insts")
                cfg.supervisor.checkpointEveryInsts = nextU64();
            else if (arg == "--max-retries")
                cfg.supervisor.retry.maxRetries =
                    static_cast<unsigned>(nextU64());
            else if (arg == "--deadline-ms")
                cfg.supervisor.defaultDeadlineMs = nextU64();
            else if (arg == "--metrics-log")
                cfg.metricsLogPath = next();
            else if (arg == "--metrics-interval-ms")
                cfg.metricsIntervalMs = nextU64();
            else if (arg == "--flight-dump")
                cfg.flightDumpPath = next();
            else if (arg == "--trace")
                cfg.tracePath = next();
            else if (arg == "--help" || arg == "-h") {
                printUsage(stdout);
                return 0;
            } else {
                printUsage(stderr);
                fatal("unknown option '" + arg + "'");
            }
        }

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
