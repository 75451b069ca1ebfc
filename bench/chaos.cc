/**
 * @file
 * chaos — kill -9 crash-recovery harness for xloopsd.
 *
 * Proves the durability contract of the write-ahead job journal
 * (docs/SERVICE.md section 7) end to end, against the real daemon
 * over the real socket:
 *
 *   1. Baseline: an uninterrupted daemon runs the whole job matrix
 *      and the stats document of every job is recorded.
 *   2. Chaos: a fresh daemon takes the same matrix from concurrent
 *      submitters and is repeatedly SIGKILLed mid-load. Before each
 *      restart the harness replays the journal itself and counts the
 *      acknowledged-but-unfinished jobs; after the restart the
 *      daemon's `recovered` counter must match exactly — an
 *      acknowledged job is never lost, an unacknowledged one never
 *      invented.
 *   3. Verdict: the final generation drains its recovered backlog,
 *      the matrix is resubmitted, and every stats document must be
 *      byte-identical to the baseline — deterministic simulation plus
 *      the content-addressed cache make at-least-once execution look
 *      exactly-once.
 *
 * Submitter threads ride through restarts on the client's connect
 * retry; requests severed by a kill are tolerated (the journal is the
 * ground truth, not the connection). Exits 0 on PASS, 1 with a
 * message on the first violated invariant. The service_crash_recovery
 * ctest runs a short configuration; CI soaks a longer one.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/cli.h"
#include "common/json.h"
#include "common/log.h"
#include "service/client.h"
#include "service/journal.h"
#include "service/protocol.h"

using namespace xloops;

namespace {

struct Options
{
    std::string xloopsd;          ///< daemon binary (required)
    std::string workdir;          ///< scratch root (required)
    unsigned cycles = 5;          ///< kill -9 / restart rounds
    unsigned killAfterMs = 700;   ///< load time before each kill
    unsigned clients = 3;         ///< concurrent submitter threads
    unsigned seeds = 4;           ///< fault-seed variants per kernel
    std::vector<std::string> kernels = {"rgb2cmyk-uc", "dynprog-om",
                                        "ssearch-uc"};
    u64 injectSeed = 1;
    double injectRate = 0.0;
    u64 ckptEveryInsts = 4096;    ///< daemon --ckpt-every-insts
    bool verbose = false;
};

struct BaselineEntry
{
    std::string status;
    std::string statsJson;
};

[[noreturn]] void
failOut(const std::string &msg)
{
    std::fprintf(stderr, "chaos: FAIL: %s\n", msg.c_str());
    std::exit(1);
}

std::vector<RunSpec>
jobMatrix(const Options &opts)
{
    std::vector<RunSpec> specs;
    for (const std::string &kernel : opts.kernels) {
        for (unsigned s = 0; s < opts.seeds; s++) {
            RunSpec spec;
            spec.kernel = kernel;
            spec.injectSeed = opts.injectSeed + s;
            spec.injectRate = opts.injectRate;
            specs.push_back(spec);
        }
    }
    return specs;
}

/** One running daemon generation. */
class Daemon
{
  public:
    Daemon(const Options &opts, const std::string &dir,
           const std::string &sock)
        : binary(opts.xloopsd), workdir(dir), socketPath(sock),
          ckptEvery(opts.ckptEveryInsts)
    {
    }

    void start()
    {
        const pid_t child = ::fork();
        if (child < 0)
            failOut(strf("fork: ", std::strerror(errno)));
        if (child == 0) {
            // Daemon output accumulates across generations in one log.
            const std::string log = workdir + "/xloopsd.log";
            const int fd =
                ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
            if (fd >= 0) {
                ::dup2(fd, 1);
                ::dup2(fd, 2);
                ::close(fd);
            }
            const std::string cacheIndex = workdir + "/cache.json";
            const std::string journal = workdir + "/journal.jnl";
            const std::string ckpt = std::to_string(ckptEvery);
            // One worker on purpose: submitters outrun the daemon, so
            // every kill lands on a non-trivial acknowledged backlog.
            const char *argv[] = {
                binary.c_str(),      "--socket",    socketPath.c_str(),
                "--workers",         "1",           "--artifact-dir",
                workdir.c_str(),     "--cache-index", cacheIndex.c_str(),
                "--journal",         journal.c_str(),
                "--ckpt-every-insts", ckpt.c_str(), nullptr};
            ::execv(binary.c_str(), const_cast<char **>(argv));
            std::fprintf(stderr, "execv %s: %s\n", binary.c_str(),
                         std::strerror(errno));
            ::_exit(127);
        }
        pid = child;
        waitForPing();
    }

    void killHard()
    {
        ::kill(pid, SIGKILL);
        reap();
    }

    /** SIGTERM drain; the daemon must exit 0. */
    void stopGracefully()
    {
        ::kill(pid, SIGTERM);
        const int status = reap();
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
            failOut(strf("daemon exited ", status,
                         " on SIGTERM, want a clean 0"));
    }

    /** One request/response against this generation. */
    JsonValue request(const Request &req, unsigned retryMs = 2000) const
    {
        ServiceClient client(socketPath, retryMs);
        return jsonParse(client.request(encodeRequest(req)));
    }

  private:
    int reap()
    {
        int status = 0;
        if (::waitpid(pid, &status, 0) < 0)
            failOut(strf("waitpid: ", std::strerror(errno)));
        pid = -1;
        return status;
    }

    void waitForPing()
    {
        Request ping;
        ping.op = "ping";
        for (unsigned tries = 0; tries < 100; tries++) {
            try {
                if (request(ping, 100).at("status").asString() == "ok")
                    return;
            } catch (const FatalError &) {
            }
            int status = 0;
            if (::waitpid(pid, &status, WNOHANG) == pid) {
                pid = -1;
                failOut("daemon died on startup (see xloopsd.log)");
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(100));
        }
        failOut("daemon never answered ping");
    }

    std::string binary;
    std::string workdir;
    std::string socketPath;
    u64 ckptEvery;
    pid_t pid = -1;
};

u64
statsCounter(const Daemon &daemon, const char *name)
{
    Request req;
    req.op = "stats";
    const JsonValue v = daemon.request(req);
    return v.at(name).asU64();
}

/** Submit @p spec synchronously; empty status = connection severed. */
BaselineEntry
submitOne(const std::string &sock, const RunSpec &spec,
          unsigned retryMs)
{
    BaselineEntry e;
    try {
        ServiceClient client(sock, retryMs);
        Request req;
        req.op = "submit";
        req.job = spec;
        const JsonValue v =
            jsonParse(client.request(encodeRequest(req)));
        e.status = v.at("status").asString();
        if (v.has("stats"))
            e.statsJson = v.at("stats").asString();
    } catch (const FatalError &) {
        // The daemon vanished mid-request: whether the job was
        // acknowledged is exactly what the journal records.
    }
    return e;
}

void
mkdirOrDie(const std::string &dir)
{
    if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST)
        failOut(strf("mkdir ", dir, ": ", std::strerror(errno)));
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    const cli::Command cmd{
        "chaos",
        "--xloopsd <bin> --workdir <dir> [options]",
        {
            cli::option("--xloopsd", "<bin>", "daemon binary (required)",
                        opts.xloopsd),
            cli::option("--workdir", "<dir>", "scratch root (required)",
                        opts.workdir),
            cli::option("--cycles", "<n>",
                        "kill -9 / restart rounds (default 5)", opts.cycles),
            cli::option("--kill-after-ms", "<n>",
                        "load time before each kill (default 700)",
                        opts.killAfterMs),
            cli::option("--clients", "<n>",
                        "concurrent submitters (default 3)", opts.clients),
            cli::option("--kernels", "<k1,k2>",
                        "kernels in the job matrix", opts.kernels),
            cli::option("--seeds", "<n>",
                        "fault-seed variants per kernel (default 4)",
                        opts.seeds),
            cli::option("--inject-seed", "<n>", "base fault seed (default 1)",
                        opts.injectSeed),
            cli::option("--inject-rate", "<p>",
                        "per-opportunity fault probability",
                        opts.injectRate),
            cli::option("--ckpt-every-insts", "<n>",
                        "daemon checkpoint cadence (default 4096)",
                        opts.ckptEveryInsts),
            cli::toggle("--verbose", "per-cycle chatter", opts.verbose),
        }};
    try {
        cli::parseCommandLine(cmd, argc, argv);
        if (opts.xloopsd.empty() || opts.workdir.empty())
            cli::usageError(cmd, "--xloopsd and --workdir are required");

        mkdirOrDie(opts.workdir);
        const std::vector<RunSpec> specs = jobMatrix(opts);

        // ---- Phase 1: the uninterrupted baseline --------------------
        const std::string baseDir = opts.workdir + "/baseline";
        mkdirOrDie(baseDir);
        std::vector<BaselineEntry> baseline;
        {
            Daemon daemon(opts, baseDir, baseDir + "/xloopsd.sock");
            daemon.start();
            for (const RunSpec &spec : specs) {
                BaselineEntry e = submitOne(
                    baseDir + "/xloopsd.sock", spec, 2000);
                if (e.status.empty())
                    failOut("baseline submit lost its connection");
                if (e.status == "done" && e.statsJson.empty())
                    failOut("baseline job done without a stats doc");
                baseline.push_back(std::move(e));
            }
            daemon.stopGracefully();
        }
        std::printf("chaos: baseline %zu jobs recorded\n",
                    baseline.size());

        // ---- Phase 2: kill -9 under load ----------------------------
        const std::string chaosDir = opts.workdir + "/chaos";
        mkdirOrDie(chaosDir);
        const std::string sock = chaosDir + "/xloopsd.sock";
        const std::string journal = chaosDir + "/journal.jnl";

        Daemon daemon(opts, chaosDir, sock);
        daemon.start();

        u64 totalRecovered = 0;
        std::atomic<u64> severed{0};
        for (unsigned cycle = 1; cycle <= opts.cycles; cycle++) {
            std::atomic<bool> stop{false};
            std::vector<std::thread> submitters;
            for (unsigned c = 0; c < opts.clients; c++) {
                submitters.emplace_back([&, c] {
                    unsigned j = c;  // stagger the matrix per thread
                    while (!stop.load()) {
                        const BaselineEntry e = submitOne(
                            sock, specs[j % specs.size()], 250);
                        if (e.status.empty())
                            severed++;
                        j++;
                    }
                });
            }

            std::this_thread::sleep_for(
                std::chrono::milliseconds(opts.killAfterMs));
            daemon.killHard();
            stop = true;
            for (std::thread &t : submitters)
                t.join();

            // The harness replays the dead generation's journal
            // itself: these jobs were acknowledged (fsync'd accept)
            // and never finished, so recovery owes us exactly them.
            const JournalRecovery owed =
                recoverPending(replayJournal(journal));

            daemon.start();
            const u64 recovered = statsCounter(daemon, "recovered");
            if (recovered != owed.pending.size())
                failOut(strf("cycle ", cycle, ": journal owes ",
                             owed.pending.size(),
                             " acknowledged job(s) but the daemon "
                             "recovered ", recovered));
            totalRecovered += recovered;
            if (opts.verbose)
                std::printf("chaos: cycle %u: recovered %llu "
                            "(severed so far %llu)\n",
                            cycle,
                            static_cast<unsigned long long>(recovered),
                            static_cast<unsigned long long>(
                                severed.load()));
        }

        // ---- Phase 3: drain, resubmit, compare ----------------------
        // Let the final generation finish its recovered backlog.
        {
            Request req;
            req.op = "health";
            for (unsigned tries = 0;; tries++) {
                const JsonValue v = daemon.request(req);
                if (v.at("in_flight").asU64() == 0)
                    break;
                if (tries > 600)
                    failOut("recovered backlog never drained");
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(100));
            }
        }

        size_t compared = 0;
        for (size_t i = 0; i < specs.size(); i++) {
            const BaselineEntry e = submitOne(sock, specs[i], 2000);
            if (e.status != baseline[i].status)
                failOut(strf("job ", i, " (", specs[i].kernel,
                             " seed ", specs[i].injectSeed,
                             "): status '", e.status,
                             "' after chaos, baseline '",
                             baseline[i].status, "'"));
            if (e.status != "done")
                continue;
            if (e.statsJson != baseline[i].statsJson)
                failOut(strf("job ", i, " (", specs[i].kernel,
                             " seed ", specs[i].injectSeed,
                             "): stats document differs from the "
                             "uninterrupted baseline — determinism "
                             "broken"));
            compared++;
        }
        daemon.stopGracefully();

        std::printf(
            "chaos: PASS (%u kill -9 cycles, %llu jobs recovered "
            "from the journal, %llu requests severed, %zu/%zu stats "
            "docs byte-identical to the baseline)\n",
            opts.cycles,
            static_cast<unsigned long long>(totalRecovered),
            static_cast<unsigned long long>(severed.load()), compared,
            specs.size());
        return 0;
    } catch (const FatalError &err) {
        std::fprintf(stderr, "chaos: %s\n", err.what());
        return 1;
    }
}
