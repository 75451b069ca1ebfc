/**
 * @file
 * Retry taxonomy and exponential backoff for supervised jobs.
 *
 * The classification leans on the SimError kinds PR 1 introduced:
 *
 *   Retryable — the *schedule* wedged, not the program. Watchdog,
 *   CycleLimit, and StructuralHang describe a timing model stuck
 *   under one adversarial interleaving; Deadline describes a run the
 *   service killed because the machine was overloaded. A fresh
 *   attempt (under a re-derived fault seed, or on a less-loaded
 *   machine) can legitimately succeed.
 *
 *   Fatal — retrying reproduces the failure byte-for-byte or the
 *   caller asked us to stop. Divergence (the architectural contract
 *   broke: always capsule, never retry — a retry would only destroy
 *   the evidence), InstLimit (a deterministic quota: the same program
 *   exceeds it again), Interrupted and Cancelled (explicit stops).
 *
 * Backoff is exponential with full-jitter drawn from a *named* RNG
 * stream ("service.retry" of an RngPool rooted at the job's seed), so
 * the exact wait sequence of any job is reproducible in tests while
 * still decorrelating real retry storms across jobs.
 */

#ifndef XLOOPS_SERVICE_RETRY_H
#define XLOOPS_SERVICE_RETRY_H

#include "common/rng.h"
#include "common/sim_error.h"

namespace xloops {

/** What the supervisor may do about a failed attempt. */
enum class FailureClass
{
    Retryable,  ///< re-run with backoff (bounded by RetryPolicy)
    Fatal,      ///< report immediately; SimErrors are capsuled
};

FailureClass classifySimError(SimErrorKind kind);

const char *failureClassName(FailureClass c);

/** Bounds of the retry loop (server-wide defaults; a RunSpec can
 *  lower maxRetries per job, never raise it). */
struct RetryPolicy
{
    unsigned maxRetries = 3;   ///< attempts = 1 + maxRetries at most
    u64 baseBackoffMs = 100;   ///< wait before the first retry
    u64 maxBackoffMs = 5'000;  ///< exponential growth cap
    double jitterFrac = 0.25;  ///< uniform in [1-f, 1+f] of the base
};

/**
 * Backoff before retry number @p retryIndex (0-based): the capped
 * exponential base * 2^retryIndex, jittered by a factor drawn from
 * @p jitter. Monotone (ignoring jitter) and bounded by
 * maxBackoffMs * (1 + jitterFrac).
 */
u64 backoffMs(const RetryPolicy &policy, unsigned retryIndex,
              Rng &jitter);

/** The named stream backoffMs jitter must draw from, so tests and
 *  the supervisor agree on the exact wait sequence. */
inline Rng &
retryJitterStream(RngPool &pool)
{
    return pool.stream("service.retry");
}

} // namespace xloops

#endif // XLOOPS_SERVICE_RETRY_H
