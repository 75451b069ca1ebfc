/**
 * @file
 * Minimal blocking client for the xloopsd line protocol, shared by
 * the xloopsc CLI and the load generator: connect to the Unix
 * socket, write one request line, read one response line (framing in
 * service/protocol.h).
 */

#ifndef XLOOPS_SERVICE_CLIENT_H
#define XLOOPS_SERVICE_CLIENT_H

#include <string>

#include "service/protocol.h"

namespace xloops {

class ServiceClient
{
  public:
    /**
     * Connect to the daemon at @p socketPath; throws FatalError when
     * the daemon is not there. A connection refused because the
     * daemon is mid-restart (ECONNREFUSED, or ENOENT while the new
     * socket is not yet bound) retries with capped exponential
     * backoff for up to @p retryBudgetMs — clients ride through a
     * crash-recovery cycle instead of failing the instant the old
     * socket vanishes. Pass 0 to fail fast.
     */
    explicit ServiceClient(const std::string &socketPath,
                           unsigned retryBudgetMs = 2000);

    ~ServiceClient();

    ServiceClient(const ServiceClient &) = delete;
    ServiceClient &operator=(const ServiceClient &) = delete;

    /** Send @p line, block for the response line. Throws FatalError
     *  when the connection dies (daemon crash = client error, not a
     *  hang). */
    std::string request(const std::string &line);

  private:
    int fd = -1;
    LineReader reader;
};

} // namespace xloops

#endif // XLOOPS_SERVICE_CLIENT_H
