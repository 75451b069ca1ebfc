#include "service/queue.h"

#include <algorithm>

namespace xloops {

BoundedJobQueue::BoundedJobQueue(size_t max_depth)
    : maxDepth(max_depth ? max_depth : 1)
{
}

bool
BoundedJobQueue::tryPush(u64 jobId)
{
    {
        std::lock_guard<std::mutex> lock(m);
        if (closedFlag || jobs.size() >= maxDepth)
            return false;
        jobs.push_back(jobId);
    }
    cv.notify_one();
    return true;
}

bool
BoundedJobQueue::forcePush(u64 jobId)
{
    {
        std::lock_guard<std::mutex> lock(m);
        if (closedFlag)
            return false;
        jobs.push_back(jobId);
    }
    cv.notify_one();
    return true;
}

bool
BoundedJobQueue::pop(u64 &jobId)
{
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return closedFlag || !jobs.empty(); });
    if (jobs.empty())
        return false;  // closed
    jobId = jobs.front();
    jobs.pop_front();
    return true;
}

bool
BoundedJobQueue::remove(u64 jobId)
{
    std::lock_guard<std::mutex> lock(m);
    const auto it = std::find(jobs.begin(), jobs.end(), jobId);
    if (it == jobs.end())
        return false;
    jobs.erase(it);
    return true;
}

std::vector<u64>
BoundedJobQueue::close()
{
    std::vector<u64> backlog;
    {
        std::lock_guard<std::mutex> lock(m);
        closedFlag = true;
        backlog.assign(jobs.begin(), jobs.end());
        jobs.clear();
    }
    cv.notify_all();
    return backlog;
}

size_t
BoundedJobQueue::depth() const
{
    std::lock_guard<std::mutex> lock(m);
    return jobs.size();
}

bool
BoundedJobQueue::isClosed() const
{
    std::lock_guard<std::mutex> lock(m);
    return closedFlag;
}

} // namespace xloops
