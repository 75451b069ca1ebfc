#include "service/client.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/log.h"

namespace xloops {

ServiceClient::ServiceClient(const std::string &socketPath,
                             unsigned retryBudgetMs)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socketPath.size() >= sizeof(addr.sun_path))
        fatal("socket path too long: " + socketPath);
    std::strncpy(addr.sun_path, socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);

    // A daemon restart is a normal event in a durable service — the
    // old socket disappears (ENOENT) or refuses (ECONNREFUSED) for
    // the moment between exec and bind. Retry those two, and only
    // those two, under a small capped-exponential schedule; anything
    // else (permissions, a path that is not a socket) fails at once.
    unsigned delayMs = 25;
    unsigned sleptMs = 0;
    while (true) {
        fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0)
            fatal(strf("socket: ", std::strerror(errno)));
        if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) == 0) {
            reader = LineReader(fd);
            return;
        }
        const int err = errno;
        ::close(fd);
        fd = -1;
        const bool transient = err == ECONNREFUSED || err == ENOENT;
        if (!transient || sleptMs >= retryBudgetMs)
            fatal(strf("cannot connect to xloopsd at ", socketPath,
                       ": ", std::strerror(err),
                       transient ? strf(" (after ", sleptMs,
                                        "ms of retries)")
                                 : ""));
        const unsigned waitMs =
            std::min(delayMs, retryBudgetMs - sleptMs);
        std::this_thread::sleep_for(std::chrono::milliseconds(waitMs));
        sleptMs += waitMs;
        delayMs = std::min(delayMs * 2, 800u);
    }
}

ServiceClient::~ServiceClient()
{
    if (fd >= 0)
        ::close(fd);
}

std::string
ServiceClient::request(const std::string &line)
{
    // sendLine's MSG_NOSIGNAL: a daemon killed mid-request must
    // surface as EPIPE (a catchable FatalError), not a process-fatal
    // SIGPIPE in whatever client happened to be writing.
    if (!sendLine(fd, line))
        fatal(strf("xloopsd connection lost: ", std::strerror(errno)));
    std::string response;
    const bool got = reader.next(response);
    if (reader.atEnd())
        fatal("xloopsd closed the connection mid-response");
    if (!got)
        fatal(strf("xloopsd connection lost: ", std::strerror(errno)));
    return response;
}

} // namespace xloops
