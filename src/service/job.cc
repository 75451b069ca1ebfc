#include "service/job.h"

namespace xloops {

const char *
jobStatusName(JobStatus status)
{
    switch (status) {
      case JobStatus::Queued: return "queued";
      case JobStatus::Running: return "running";
      case JobStatus::Done: return "done";
      case JobStatus::Failed: return "failed";
      case JobStatus::Cancelled: return "cancelled";
    }
    return "unknown";
}

} // namespace xloops
