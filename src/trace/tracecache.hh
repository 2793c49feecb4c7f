/**
 * @file
 * On-disk cache of synthesised workload traces.
 *
 * Synthesising a workload trace costs real time (the kernels execute
 * their full algorithms), and every figure-regenerating bench
 * re-synthesises the same 30 traces. The cache stores each trace once
 * in a compact binary file keyed by everything that determines its
 * contents — workload name, instruction budget, seed and the
 * TraceRecord layout — so the second and subsequent binaries load
 * instead of recompute.
 *
 * Cache files are written atomically (temp file + rename), so
 * concurrent processes racing on a cold cache at worst both
 * synthesise; neither can observe a half-written file. Any mismatch
 * — stale embedded key, wrong format version, truncation — is
 * treated as a miss and falls back to re-synthesis.
 *
 * The cache is an opt-in surface: construct it with a directory; a
 * default-constructed cache is disabled.
 */

#ifndef CBWS_TRACE_TRACECACHE_HH
#define CBWS_TRACE_TRACECACHE_HH

#include <atomic>
#include <cstdint>
#include <string>

#include "base/result.hh"
#include "trace/trace.hh"

namespace cbws
{

class TraceCache
{
  public:
    /** Everything that determines a synthesised trace's contents. */
    struct Key
    {
        std::string workload;
        std::uint64_t maxInstructions = 0;
        std::uint64_t seed = 0;
    };

    /** A disabled cache: every load misses, every store is a no-op. */
    TraceCache() = default;

    /** Cache rooted at @p dir (created, with parents, on first use). */
    explicit TraceCache(std::string dir);

    // The atomic counters delete the implicit copy operations;
    // copying a cache transfers a snapshot of them.
    TraceCache(const TraceCache &o)
        : dir_(o.dir_), hits_(o.hits_.load()), misses_(o.misses_.load())
    {}

    TraceCache &
    operator=(const TraceCache &o)
    {
        dir_ = o.dir_;
        hits_.store(o.hits_.load());
        misses_.store(o.misses_.load());
        return *this;
    }

    bool enabled() const { return !dir_.empty(); }
    const std::string &directory() const { return dir_; }

    /** File a trace with @p key lives in (empty when disabled). */
    std::string pathFor(const Key &key) const;

    /**
     * Load the trace cached under @p key into @p trace. Any failure
     * leaves @p trace empty and reports why: NotFound when the cache
     * is disabled or the key absent, Corrupt when the file exists but
     * is stale/truncated/garbled (the caller re-synthesises — and
     * typically store()s — in every failure case, so each code is
     * advisory, not fatal).
     */
    Result<void> load(const Key &key, Trace &trace) const;

    /** Persist @p trace under @p key (atomic publish). */
    Result<void> store(const Key &key, const Trace &trace) const;

    /** Cache effectiveness counters (cumulative, thread-safe). */
    std::uint64_t hits() const { return hits_.load(); }
    std::uint64_t misses() const { return misses_.load(); }

  private:
    bool ensureDirectory() const;

    std::string dir_;
    mutable std::atomic<std::uint64_t> hits_{0};
    mutable std::atomic<std::uint64_t> misses_{0};
};

} // namespace cbws

#endif // CBWS_TRACE_TRACECACHE_HH
