/**
 * @file
 * Bounded MPMC job queue — the service's admission-control point.
 *
 * The bound is the load-shedding mechanism: when the queue is full,
 * tryPush refuses and the daemon answers "overloaded" instead of
 * buffering unboundedly (a full queue means the workers are already
 * saturated for longer than any client should wait; queueing deeper
 * only converts overload into timeout storms). close() is the drain
 * half: it hands the backlog back to the caller, and after it pushes
 * are refused and pops return false, so worker threads exit
 * deterministically.
 */

#ifndef XLOOPS_SERVICE_QUEUE_H
#define XLOOPS_SERVICE_QUEUE_H

#include <condition_variable>
#include <deque>
#include <mutex>
#include <vector>

#include "common/types.h"

namespace xloops {

/** Bounded FIFO of job ids; blocking pop, non-blocking push. */
class BoundedJobQueue
{
  public:
    explicit BoundedJobQueue(size_t max_depth = 64);

    /** Admit @p jobId; false when the queue is full or closed (the
     *  caller sheds the job — it was never queued). */
    bool tryPush(u64 jobId);

    /** Admit @p jobId even past the bound (crash recovery: a job the
     *  dead daemon already acknowledged must never be shed, but it
     *  still counts toward depth() so fresh submissions feel the
     *  backpressure). False only when closed. */
    bool forcePush(u64 jobId);

    /** Block for the next job; false when closed (the calling worker
     *  should exit). */
    bool pop(u64 &jobId);

    /** Remove a queued job before a worker claims it (cancellation);
     *  false when it already left the queue. */
    bool remove(u64 jobId);

    /** Refuse new pushes, wake all poppers, and return the jobs still
     *  queued, oldest first: no worker will ever claim them. A second
     *  call returns nothing. */
    std::vector<u64> close();

    size_t depth() const;
    bool isClosed() const;

  private:
    mutable std::mutex m;
    std::condition_variable cv;
    std::deque<u64> jobs;
    size_t maxDepth;
    bool closedFlag = false;
};

} // namespace xloops

#endif // XLOOPS_SERVICE_QUEUE_H
