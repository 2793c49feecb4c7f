/**
 * @file
 * Retry-with-backoff for transient I/O failures. Checkpoint appends
 * and similar durability writes funnel through here so an injected
 * (or real) transient error is absorbed instead of aborting the run.
 */

#ifndef CBWS_BASE_RETRY_HH
#define CBWS_BASE_RETRY_HH

#include <chrono>
#include <thread>

#include "base/result.hh"

namespace cbws
{

/**
 * Invoke @p fn (returning Result<void>) up to @p attempts times,
 * sleeping base_ms, 2*base_ms, 4*base_ms, ... between tries. Returns
 * the first success, or the last failure once attempts are exhausted.
 * base_ms of 0 retries immediately (tests).
 */
template <typename Fn>
Result<void>
retryWithBackoff(unsigned attempts, unsigned base_ms, Fn &&fn)
{
    Result<void> last;
    unsigned delay = base_ms;
    for (unsigned attempt = 0; attempt < attempts; ++attempt) {
        if (attempt > 0 && delay > 0) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(delay));
            delay *= 2;
        }
        last = fn();
        if (last.ok())
            return last;
    }
    return last;
}

} // namespace cbws

#endif // CBWS_BASE_RETRY_HH
