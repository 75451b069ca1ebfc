#include "service/server.h"

#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/log.h"
#include "common/metrics.h"
#include "service/protocol.h"

namespace xloops {

namespace {

/** Wire metric handles, resolved once. */
struct WireMetrics
{
    Counter &connections =
        metricsRegistry().counter("xloops_wire_connections_total");
    Counter &requests =
        metricsRegistry().counter("xloops_wire_requests_total");
    Counter &decodeErrors =
        metricsRegistry().counter("xloops_wire_decode_errors_total");
    Counter &bytesIn =
        metricsRegistry().counter("xloops_wire_bytes_in_total");
    Counter &bytesOut =
        metricsRegistry().counter("xloops_wire_bytes_out_total");
};

WireMetrics &
wireMetrics()
{
    static WireMetrics wm;
    return wm;
}

/** One request line -> one response line. */
std::string
handleRequest(Supervisor &sup, const std::string &line,
              std::atomic<bool> &drainRequested)
{
    wireMetrics().requests.inc();
    Request req;
    try {
        req = parseRequest(line);
    } catch (const FatalError &err) {
        wireMetrics().decodeErrors.inc();
        return encodeError(err.what());
    }

    try {
        if (req.op == "ping")
            return encodeOk();
        if (req.op == "stats")
            return encodeStats(sup.stats());
        if (req.op == "metrics") {
            // Publish first so the scrape's job-accounting family is
            // one consistent instant (the conservation invariant).
            sup.publishMetrics();
            return encodeMetrics(
                metricsRegistry().jsonText(/*pretty=*/false),
                metricsRegistry().promText());
        }
        if (req.op == "health")
            return encodeHealth(sup.health());
        if (req.op == "drain") {
            // The accept loop owns the actual drain (it must also
            // stop accepting and persist the cache); just signal it.
            drainRequested.store(true);
            return encodeOk();
        }
        if (req.op == "status")
            return encodeOutcome(sup.status(req.jobId));

        // submit: synchronous — the response is the terminal outcome.
        const Admission adm = sup.submit(req.job);
        if (!adm.accepted) {
            if (adm.reason == "overloaded")
                return encodeShed(adm.jobId);
            return encodeError(adm.reason);
        }
        return encodeOutcome(sup.wait(adm.jobId));
    } catch (const FatalError &err) {
        return encodeError(err.what());
    }
}

} // namespace

int
runServer(const ServerConfig &cfg, const std::atomic<u32> &shutdownFlag)
{
    Supervisor sup(cfg.supervisor);

    // Condemned cache data is preserved next to the capsules so a
    // corruption report always has its evidence attached.
    const std::string quarantineDir =
        cfg.supervisor.artifactDir + "/quarantine";
    ::mkdir(quarantineDir.c_str(), 0755);  // may already exist
    sup.cache().setQuarantineDir(quarantineDir);

    const RecoveryReport &rr = sup.recovery();
    if (rr.recovered || rr.tornTail)
        std::fprintf(stderr,
                     "xloopsd: recovered %llu job(s) from journal "
                     "(%llu resumable from checkpoint)%s\n",
                     static_cast<unsigned long long>(rr.recovered),
                     static_cast<unsigned long long>(rr.withCheckpoint),
                     rr.tornTail ? ", torn tail truncated" : "");

    if (!cfg.cacheIndexPath.empty()) {
        const size_t restored =
            sup.cache().loadIndex(cfg.cacheIndexPath);
        if (restored)
            std::fprintf(stderr,
                         "xloopsd: restored %zu cached results\n",
                         restored);
    }

    const int listenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd < 0)
        fatal(strf("socket: ", std::strerror(errno)));

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (cfg.socketPath.size() >= sizeof(addr.sun_path)) {
        ::close(listenFd);
        fatal("socket path too long: " + cfg.socketPath);
    }
    std::strncpy(addr.sun_path, cfg.socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(cfg.socketPath.c_str());  // stale socket from a crash
    if (::bind(listenFd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) < 0) {
        ::close(listenFd);
        fatal(strf("bind ", cfg.socketPath, ": ",
                   std::strerror(errno)));
    }
    if (::listen(listenFd, 64) < 0) {
        ::close(listenFd);
        fatal(strf("listen: ", std::strerror(errno)));
    }
    std::fprintf(stderr, "xloopsd: listening on %s\n",
                 cfg.socketPath.c_str());

    std::atomic<bool> drainRequested{false};

    // One thread per live connection. When its client leaves, the
    // thread closes its fd and parks itself in `departed` for the
    // accept loop to join, so fds and threads track live clients.
    std::mutex connMutex;
    std::condition_variable connLeft;
    std::map<int, std::thread> live;    // by fd; guarded by connMutex
    std::vector<std::thread> departed;  // finished, not yet joined
    const auto reap = [&] {
        std::vector<std::thread> done;
        {
            std::lock_guard<std::mutex> lock(connMutex);
            done.swap(departed);
        }
        for (std::thread &t : done)
            t.join();
    };

    // Periodic metrics log: one compact "xloops-metrics-1" line per
    // interval, so a misbehaving daemon leaves a trend to post-mortem
    // even when nobody was scraping. The final line lands at drain.
    std::mutex logMutex;
    std::condition_variable logCv;
    bool logStop = false;
    std::ofstream metricsLog;
    std::thread metricsLogger;
    const auto appendSnapshot = [&] {
        sup.publishMetrics();
        metricsLog << metricsRegistry().jsonText(/*pretty=*/false)
                   << "\n";
        metricsLog.flush();
    };
    if (!cfg.metricsLogPath.empty()) {
        metricsLog.open(cfg.metricsLogPath, std::ios::app);
        if (!metricsLog)
            fatal("cannot write metrics log " + cfg.metricsLogPath);
        metricsLogger = std::thread([&] {
            std::unique_lock<std::mutex> lock(logMutex);
            while (!logStop) {
                logCv.wait_for(
                    lock,
                    std::chrono::milliseconds(cfg.metricsIntervalMs));
                if (logStop)
                    return;
                appendSnapshot();
            }
        });
    }

    // Accept with a poll timeout so shutdown requests (signal or
    // protocol "drain") are noticed within ~200ms even when idle.
    while (shutdownFlag.load() == 0 && !drainRequested.load()) {
        reap();
        pollfd pfd{listenFd, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, 200);
        if (ready < 0 && errno != EINTR)
            break;
        if (ready <= 0 || !(pfd.revents & POLLIN))
            continue;
        const int connFd = ::accept(listenFd, nullptr, nullptr);
        if (connFd < 0) {
            // Out of fds: poll keeps reporting the backlog, so wait
            // for a client to leave (or one poll period, to notice a
            // drain) instead of spinning on accept.
            if (errno == EMFILE || errno == ENFILE) {
                std::unique_lock<std::mutex> lock(connMutex);
                connLeft.wait_for(lock, std::chrono::milliseconds(200),
                                  [&] { return !departed.empty(); });
            }
            continue;
        }
        wireMetrics().connections.inc();
        // Join the departed first: the new thread then reuses their
        // stack and malloc arena instead of adding its own.
        reap();
        std::lock_guard<std::mutex> lock(connMutex);
        live.emplace(connFd, std::thread([&, connFd] {
            LineReader reader(connFd);
            std::string line;
            while (reader.next(line)) {
                if (line.empty())
                    continue;
                wireMetrics().bytesIn.inc(line.size() + 1);
                const std::string response =
                    handleRequest(sup, line, drainRequested);
                if (!sendLine(connFd, response))
                    break;
                wireMetrics().bytesOut.inc(response.size() + 1);
                if (drainRequested.load() || shutdownFlag.load())
                    break;
            }
            // Closed under connMutex, so drain never shuts down a
            // reused fd.
            std::lock_guard<std::mutex> lock(connMutex);
            ::close(connFd);
            const auto it = live.find(connFd);
            departed.push_back(std::move(it->second));
            live.erase(it);
            connLeft.notify_all();
        }));
    }

    // Graceful drain: no new connections, no new jobs; jobs already
    // running finish (or honor their stop flags), their clients get
    // real responses, and the cache survives to the next daemon.
    std::fprintf(stderr, "xloopsd: draining\n");
    ::close(listenFd);
    sup.drain();  // in-flight submits resolve; waiters respond
    {
        // Unblock connections idling in read() with no request, and
        // wait for every live one to leave.
        std::unique_lock<std::mutex> lock(connMutex);
        for (const auto &[fd, thread] : live)
            ::shutdown(fd, SHUT_RDWR);
        connLeft.wait(lock, [&] { return live.empty(); });
    }
    reap();
    if (!cfg.cacheIndexPath.empty()) {
        try {
            sup.cache().saveIndex(cfg.cacheIndexPath);
            std::fprintf(stderr, "xloopsd: cache index: %s\n",
                         cfg.cacheIndexPath.c_str());
        } catch (const FatalError &err) {
            std::fprintf(stderr, "xloopsd: %s\n", err.what());
        }
    }

    // Telemetry artifacts: final metrics snapshot, the flight
    // recorder (the service context leading up to shutdown), and the
    // per-job span ring as a Perfetto-viewable trace.
    if (metricsLogger.joinable()) {
        {
            std::lock_guard<std::mutex> lock(logMutex);
            logStop = true;
        }
        logCv.notify_all();
        metricsLogger.join();
        appendSnapshot();
        std::fprintf(stderr, "xloopsd: metrics log: %s\n",
                     cfg.metricsLogPath.c_str());
    }
    if (!cfg.flightDumpPath.empty()) {
        std::ofstream out(cfg.flightDumpPath);
        if (out) {
            out << sup.flight().dumpJson(/*pretty=*/true) << "\n";
            std::fprintf(stderr, "xloopsd: flight dump: %s\n",
                         cfg.flightDumpPath.c_str());
        } else {
            std::fprintf(stderr, "xloopsd: cannot write %s\n",
                         cfg.flightDumpPath.c_str());
        }
    }
    if (!cfg.tracePath.empty()) {
        std::ofstream out(cfg.tracePath);
        if (out) {
            sup.spanTracer().writeChromeJson(out);
            std::fprintf(stderr, "xloopsd: span trace: %s\n",
                         cfg.tracePath.c_str());
        } else {
            std::fprintf(stderr, "xloopsd: cannot write %s\n",
                         cfg.tracePath.c_str());
        }
    }

    ::unlink(cfg.socketPath.c_str());
    std::fprintf(stderr, "xloopsd: drained cleanly\n");
    return 0;
}

} // namespace xloops
