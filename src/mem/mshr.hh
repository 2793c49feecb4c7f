/**
 * @file
 * Miss status holding registers (MSHRs) with merge semantics.
 *
 * Each cache level owns an MshrFile. A miss allocates an entry with the
 * cycle at which its fill completes; later misses to the same line merge
 * into the existing entry (secondary misses) instead of generating new
 * downstream traffic. A full MSHR file back-pressures the core: loads
 * that cannot allocate retry the following cycle, which is what limits
 * memory-level parallelism to the 4 L1 / 32 L2 MSHRs of Table II.
 */

#ifndef CBWS_MEM_MSHR_HH
#define CBWS_MEM_MSHR_HH

#include <array>
#include <cstdint>
#include <vector>

#include "base/types.hh"

namespace cbws
{

/**
 * Fixed-capacity MSHR file for one cache level.
 */
class MshrFile
{
  public:
    struct Entry
    {
        LineAddr line = 0;
        Cycle readyAt = 0;
        bool valid = false;
        bool isPrefetch = false; ///< fill initiated by the prefetcher
        bool isWrite = false;    ///< any merged request was a store
        bool demanded = false;   ///< a demand access merged into this
                                 ///< entry while it was in flight
        /** Lifecycle attribution of prefetch-initiated fills. */
        PfSource pfSource = PfSource::Unknown;
        /** Cycle the first demand merged in (lateness accounting). */
        Cycle firstDemandAt = 0;
        /** Requesting core (fill ownership; 0 in single-core). */
        std::uint8_t core = 0;
    };

    explicit MshrFile(unsigned capacity) : entries_(capacity) {}

    /**
     * Find the in-flight entry for @p line, if any. A line whose
     * filter bucket counts no valid entry answers without a walk.
     */
    Entry *
    find(LineAddr line)
    {
        if (lineCount_[bucket(line)] == 0)
            return nullptr;
        return findSlow(line);
    }

    const Entry *
    find(LineAddr line) const
    {
        return const_cast<MshrFile *>(this)->find(line);
    }

    /**
     * True when no entry can be allocated. O(1): the valid count is
     * maintained at allocate/drain/clear, because full() guards every
     * demand miss and inFlight() every prefetch issue — the two
     * hottest queries in the hierarchy.
     */
    bool full() const { return numValid_ == entries_.size(); }

    /** Number of valid (in-flight) entries. O(1). */
    unsigned inFlight() const { return numValid_; }

    /**
     * Allocate an entry; the caller must have checked full() and
     * find() first. Returns the new entry.
     */
    Entry &allocate(LineAddr line, Cycle ready_at, bool is_prefetch,
                    bool is_write);

    /**
     * Retire every entry whose fill completed at or before @p now,
     * invoking @p on_fill for each (used by the hierarchy to install
     * lines into the tag arrays at fill time). Entries retire in
     * entry-array order (allocation-slot order), which callers'
     * replacement state depends on — do not reorder.
     *
     * Templated so the idle early-out (by far the most frequent
     * outcome: the hierarchy probes every MSHR file every simulated
     * cycle) inlines to a single compare at the call site, and so the
     * callback lambdas are invoked directly instead of being wrapped
     * in a std::function per call.
     */
    template <typename OnFill>
    void
    drain(Cycle now, OnFill &&on_fill)
    {
        if (now < nextReady_)
            return;
        Cycle next = NoEvent;
        for (auto &e : entries_) {
            if (!e.valid)
                continue;
            if (e.readyAt <= now) {
                on_fill(static_cast<const Entry &>(e));
                e.valid = false;
                --numValid_;
                --lineCount_[bucket(e.line)];
            } else if (e.readyAt < next) {
                next = e.readyAt;
            }
        }
        nextReady_ = next;
    }

    /** Drop all entries (end of simulation). */
    void clear();

    /** Raw entry array (end-of-run lifecycle accounting only). */
    const std::vector<Entry> &entries() const { return entries_; }

    /**
     * Cycle of the earliest pending fill, or a huge sentinel when the
     * file is idle; lets the hierarchy skip drain scans on idle cycles.
     */
    Cycle nextReady() const { return nextReady_; }

  private:
    /** Filter bucket of @p line: its low 8 bits. */
    static constexpr std::size_t FilterBuckets = 256;
    static std::size_t
    bucket(LineAddr line)
    {
        return line & (FilterBuckets - 1);
    }

    /** The walk behind find(), once the filter let @p line through. */
    Entry *findSlow(LineAddr line);

    std::vector<Entry> entries_;
    unsigned numValid_ = 0;
    Cycle nextReady_ = NoEvent;
    /** Valid entries per bucket(): 0 proves a line is not in flight. */
    std::array<std::uint32_t, FilterBuckets> lineCount_{};

    static constexpr Cycle NoEvent = ~Cycle(0);
};

} // namespace cbws

#endif // CBWS_MEM_MSHR_HH
