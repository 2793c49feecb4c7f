/**
 * @file
 * Two-level inclusive cache hierarchy over a pluggable DRAM timing
 * backend (mem/dram/backend.hh), with a prefetch-into-L2 path and the
 * per-demand-access timeliness/accuracy classification of the paper's
 * Fig. 13.
 *
 * Timing model: latency composition. A demand access resolves, at issue
 * time, to the cycle its data becomes available, by walking L1 -> L2 ->
 * DRAM and consulting the MSHR files for in-flight fills. Limited MSHRs
 * provide structural back-pressure (the access reports `ok == false`
 * and the core retries next cycle). Fills install into the tag arrays
 * when their MSHR entry drains, so replacement decisions happen at fill
 * time, in fill order.
 *
 * Per the paper's methodology, prefetchers fetch data into the L2 only.
 */

#ifndef CBWS_MEM_HIERARCHY_HH
#define CBWS_MEM_HIERARCHY_HH

#include <cstdint>
#include <deque>
#include <iterator>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "base/tracesink.hh"
#include "mem/cache.hh"
#include "mem/dram/backend.hh"
#include "mem/mshr.hh"
#include "mem/params.hh"

namespace cbws
{

/**
 * Fig. 13 classification of one demand L2 access (i.e., one L1D miss).
 */
enum class DemandClass : std::uint8_t
{
    None,       ///< not a demand L2 access (L1 hit / L1-MSHR merge)
    CachedHit,  ///< L2 hit on a line not owed to an unused prefetch
    Timely,     ///< L2 hit on a prefetched, not-yet-used line
    Shorter,    ///< merged into an in-flight prefetch (partial hiding)
    NonTimely,  ///< line was identified (queued) but not yet issued
    Missing,    ///< plain miss: no prefetch issued, or evicted early
    NumClasses,
};

/** Result of a demand access into the hierarchy. */
struct AccessOutcome
{
    bool ok = true;       ///< false: structural stall, retry next cycle
    Cycle readyAt = 0;    ///< cycle the data is usable by the core
    bool l1Hit = false;
    DemandClass cls = DemandClass::None;
};

/** Number of log2 buckets in the prefetch lateness histogram. */
constexpr unsigned LatenessBuckets = 24;

/**
 * Lifecycle accounting for the prefetches of one source: every request
 * is tagged with its source at the prefetcher's issue and tracked
 * until it is conclusively resolved. Two conservation laws hold for any
 * finalized run without a warmup window:
 *
 *   issued == dropped + merged + filled
 *   filled == demandHitTimely + demandHitLate
 *             + evictedUnused + residentAtEnd
 *
 * "merged" covers every way a request is subsumed without its own
 * fill: the line was already cached or in flight, or a demand access
 * overtook the still-queued request (the paper's non-timely class).
 */
struct PrefetchLifecycle
{
    std::uint64_t issued = 0;  ///< requests tagged by the prefetcher
    std::uint64_t dropped = 0; ///< queue overflow / never left queue
    std::uint64_t merged = 0;  ///< subsumed by a copy or a demand
    std::uint64_t filled = 0;  ///< brought a line into the L2
    std::uint64_t demandHitTimely = 0; ///< line demanded after fill
    std::uint64_t demandHitLate = 0;   ///< demanded while in flight
    std::uint64_t evictedUnused = 0;   ///< pollution: evicted unused
    std::uint64_t residentAtEnd = 0;   ///< unused but still resident
    /** Total cycles demands waited on late prefetch fills. */
    std::uint64_t latenessCycles = 0;

    /** Every counter, in declaration order (the checkpoint layout of
     *  one `pf_life` entry). */
    static constexpr std::uint64_t PrefetchLifecycle::*Counters[] = {
        &PrefetchLifecycle::issued,
        &PrefetchLifecycle::dropped,
        &PrefetchLifecycle::merged,
        &PrefetchLifecycle::filled,
        &PrefetchLifecycle::demandHitTimely,
        &PrefetchLifecycle::demandHitLate,
        &PrefetchLifecycle::evictedUnused,
        &PrefetchLifecycle::residentAtEnd,
        &PrefetchLifecycle::latenessCycles,
    };

    std::uint64_t
    demandHits() const
    {
        return demandHitTimely + demandHitLate;
    }

    /** Useful fraction of the lines this source brought in. */
    double
    accuracy() const
    {
        return filled ? static_cast<double>(demandHits()) /
                            static_cast<double>(filled)
                      : 0.0;
    }

    /** Fraction of useful prefetches that arrived after the demand. */
    double
    lateFraction() const
    {
        return demandHits() ? static_cast<double>(demandHitLate) /
                                  static_cast<double>(demandHits())
                            : 0.0;
    }

    /** Fraction of filled lines that only polluted the cache. */
    double
    pollutionRate() const
    {
        return filled ? static_cast<double>(evictedUnused) /
                            static_cast<double>(filled)
                      : 0.0;
    }

    bool operator==(const PrefetchLifecycle &) const = default;

    void
    add(const PrefetchLifecycle &o)
    {
        for (auto counter : Counters)
            this->*counter += o.*counter;
    }
};

static_assert(sizeof(PrefetchLifecycle) ==
                  std::size(PrefetchLifecycle::Counters) *
                      sizeof(std::uint64_t),
              "a PrefetchLifecycle counter is missing from its Counters");

/**
 * Per-core slice of the hierarchy statistics; only populated when the
 * hierarchy simulates more than one core (HierarchyStats::perCore is
 * empty in single-core runs, keeping them bit-identical to the
 * original single-core model).
 */
struct CoreMemStats
{
    std::uint64_t l1dAccesses = 0;
    std::uint64_t l1dMisses = 0;
    std::uint64_t l1iAccesses = 0;
    std::uint64_t l1iMisses = 0;
    std::uint64_t demandL2Accesses = 0;
    /** Primary demand misses in the shared LLC by this core. */
    std::uint64_t llcDemandMisses = 0;
    std::uint64_t prefetchesRequested = 0;
    std::uint64_t prefetchesIssued = 0;
    /**
     * Demand misses this core took on lines another core's prefetch
     * evicted (this core is the pollution *victim*).
     */
    std::uint64_t pollutionVictimMisses = 0;
    /**
     * Demand misses this core's prefetches inflicted on other cores
     * (this core is the pollution *aggressor*).
     */
    std::uint64_t pollutionCausedMisses = 0;
    /** Shared-L2 lines owned by this core at finalize(). */
    std::uint64_t l2ResidentLines = 0;

    /** Every counter, in declaration order (the checkpoint layout of
     *  a `per_core` entry's `mem` array). */
    static constexpr std::uint64_t CoreMemStats::*Counters[] = {
        &CoreMemStats::l1dAccesses,
        &CoreMemStats::l1dMisses,
        &CoreMemStats::l1iAccesses,
        &CoreMemStats::l1iMisses,
        &CoreMemStats::demandL2Accesses,
        &CoreMemStats::llcDemandMisses,
        &CoreMemStats::prefetchesRequested,
        &CoreMemStats::prefetchesIssued,
        &CoreMemStats::pollutionVictimMisses,
        &CoreMemStats::pollutionCausedMisses,
        &CoreMemStats::l2ResidentLines,
    };

    bool operator==(const CoreMemStats &) const = default;
};

static_assert(sizeof(CoreMemStats) ==
                  std::size(CoreMemStats::Counters) *
                      sizeof(std::uint64_t),
              "a CoreMemStats counter is missing from its Counters");

/** Aggregate statistics of the hierarchy. */
struct HierarchyStats
{
    std::uint64_t l1dAccesses = 0;
    std::uint64_t l1dMisses = 0;
    std::uint64_t l1iAccesses = 0;
    std::uint64_t l1iMisses = 0;
    std::uint64_t demandL2Accesses = 0;
    /** Primary demand misses in the LLC (drives Fig. 12 MPKI). */
    std::uint64_t llcDemandMisses = 0;
    std::uint64_t classCounts[static_cast<int>(
        DemandClass::NumClasses)] = {};
    /** Prefetched lines evicted (or left) without ever being used. */
    std::uint64_t wrongPrefetches = 0;
    std::uint64_t prefetchesRequested = 0;
    std::uint64_t prefetchesIssued = 0;
    std::uint64_t prefetchesFiltered = 0; ///< already cached/in flight
    std::uint64_t prefetchesDropped = 0;  ///< queue overflow
    std::uint64_t dramBytesRead = 0;
    std::uint64_t dramBytesWritten = 0;
    std::uint64_t mshrStalls = 0;
    /**
     * Demand misses whose line a *different* core's prefetch evicted
     * from the shared L2 (cross-core prefetch pollution). Always 0
     * in single-core runs.
     */
    std::uint64_t crossCorePollutionMisses = 0;
    /**
     * Shared-L2 accesses delayed by bank arbitration (another core's
     * same-cycle access held the bank). Always 0 in single-core runs,
     * where the arbiter is bypassed.
     */
    std::uint64_t l2BankConflicts = 0;
    /** Per-core slices; empty unless numCores > 1. */
    std::vector<CoreMemStats> perCore;

    /**
     * Counters of the DRAM timing backend (mem/dram/backend.hh).
     * Kept live by the Hierarchy (mirrored from the backend on every
     * stats read), so reports and checkpoints see them like any
     * other hierarchy counter.
     */
    DramStats dram;

    /** Per-source prefetch lifecycle accounting. */
    PrefetchLifecycle pfLife[NumPfSources];
    /**
     * Histogram of fill lateness of useful prefetches: bucket 0 holds
     * timely hits (the fill beat the demand), bucket b >= 1 holds late
     * hits whose demand waited in [2^(b-1), 2^b) cycles.
     */
    std::uint64_t latenessHist[LatenessBuckets] = {};

    /** The scalar counters, in declaration order (the checkpoint
     *  `mem` array). The aggregates above have layouts of their own. */
    static constexpr std::uint64_t HierarchyStats::*Counters[] = {
        &HierarchyStats::l1dAccesses,
        &HierarchyStats::l1dMisses,
        &HierarchyStats::l1iAccesses,
        &HierarchyStats::l1iMisses,
        &HierarchyStats::demandL2Accesses,
        &HierarchyStats::llcDemandMisses,
        &HierarchyStats::wrongPrefetches,
        &HierarchyStats::prefetchesRequested,
        &HierarchyStats::prefetchesIssued,
        &HierarchyStats::prefetchesFiltered,
        &HierarchyStats::prefetchesDropped,
        &HierarchyStats::dramBytesRead,
        &HierarchyStats::dramBytesWritten,
        &HierarchyStats::mshrStalls,
        &HierarchyStats::crossCorePollutionMisses,
        &HierarchyStats::l2BankConflicts,
    };

    std::uint64_t
    classCount(DemandClass cls) const
    {
        return classCounts[static_cast<int>(cls)];
    }

    /** Lifecycle counters summed over every source. */
    PrefetchLifecycle
    pfLifeTotal() const
    {
        PrefetchLifecycle total;
        for (const auto &life : pfLife)
            total.add(life);
        return total;
    }

    /** Exact memberwise equality (tests assert determinism with
     *  this; defaulted, so a new counter cannot be left out). */
    bool operator==(const HierarchyStats &) const = default;
};

static_assert(sizeof(HierarchyStats) ==
                  std::size(HierarchyStats::Counters) *
                          sizeof(std::uint64_t) +
                      sizeof(HierarchyStats::classCounts) +
                      sizeof(HierarchyStats::perCore) +
                      sizeof(HierarchyStats::dram) +
                      sizeof(HierarchyStats::pfLife) +
                      sizeof(HierarchyStats::latenessHist),
              "a HierarchyStats counter is missing from its Counters");

/**
 * The memory system: L1I + L1D backed by an inclusive L2 and DRAM.
 */
class Hierarchy
{
  public:
    explicit Hierarchy(const HierarchyParams &params);

    /**
     * Advance bookkeeping to @p now: drain completed fills and issue
     * queued prefetches. Must be called with non-decreasing cycles;
     * the demand-access entry points call it internally as well.
     * Inline, because most calls repeat a cycle whose drains already
     * ran (the tick() inside each demand access): only the prefetch
     * issue budget renews per call, and the queue is usually empty.
     */
    void
    tick(Cycle now)
    {
        if (lastDrainCycle_ != now)
            tickNewCycle(now);
        else if (!prefetchQueue_.empty())
            issuePrefetches(now);
    }

    /** Demand load from core @p core at cycle @p now. */
    AccessOutcome load(Addr addr, Cycle now, unsigned core = 0);

    /**
     * Read right after load() failed: when core @p core's L1D MSHR
     * file was full, the first cycle at which it can drain. Until
     * then the file stays full and that L1D gains no line, so a
     * retry of the same load fails the same way, with
     * repeatBlockedLoad()'s effects. 0 when the file has room (the
     * L2 MSHR file stalled the load) or under prefetchToL1, whose L2
     * fills insert into the L1D at any cycle.
     */
    Cycle
    l1dBlockedUntil(unsigned core) const
    {
        const MshrFile &mshrs = l1dMshr_[core];
        return params_.prefetchToL1 || !mshrs.full() ? 0
                                                     : mshrs.nextReady();
    }

    /**
     * Replay a load retry that l1dBlockedUntil() proved fails: the
     * tick() every access makes (which renews the prefetch-issue
     * budget when the queue is non-empty) and one MSHR stall.
     */
    void
    repeatBlockedLoad(Cycle now)
    {
        tick(now);
        ++stats_.mshrStalls;
    }

    /**
     * Demand store (write-allocate, writeback). Stores never stall the
     * core in this model: if no MSHR is free the miss is counted but
     * the fill is skipped.
     */
    AccessOutcome store(Addr addr, Cycle now, unsigned core = 0);

    /** Instruction fetch through core @p core's L1I. */
    AccessOutcome fetch(Addr pc, Cycle now, unsigned core = 0);

    /**
     * Queue a prefetch request for @p line (issued to the L2 by
     * tick(), bandwidth- and MSHR-permitting). Oldest requests are
     * dropped on overflow. @p src attributes the request's lifecycle
     * to the prefetcher component that generated it; @p core to the
     * core whose private prefetcher instance requested it.
     */
    void enqueuePrefetch(LineAddr line,
                         PfSource src = PfSource::Unknown,
                         unsigned core = 0);

    /** True when @p line is in the L2 or already being fetched. */
    bool isCachedOrInFlightL2(LineAddr line) const;

    /** True when @p line is resident in core @p core's L1D. */
    bool isCachedL1D(LineAddr line, unsigned core = 0) const;

    /**
     * End-of-run accounting: resident prefetched-but-unused lines are
     * counted as wrong prefetches.
     */
    void finalize();

    /** Zero the statistics (cache/MSHR/DRAM timing state is
     *  preserved) — used at the end of the warm-up window. */
    void
    resetStats()
    {
        stats_ = HierarchyStats();
        if (params_.numCores > 1)
            stats_.perCore.resize(params_.numCores);
        dram_->resetStats();
    }

    const HierarchyStats &
    stats() const
    {
        stats_.dram = dram_->stats();
        return stats_;
    }

    /** stats().mshrStalls, without mirroring the DRAM counters (the
     *  cycle loop reads it every stepped cycle). */
    std::uint64_t mshrStalls() const { return stats_.mshrStalls; }

    const HierarchyParams &params() const { return params_; }

    /** The main-memory timing backend this hierarchy runs over. */
    const DramBackend &dram() const { return *dram_; }

    /**
     * Attach a timeline-event sink (Chrome trace export); nullptr
     * detaches. Events are only constructed for cycles the sink
     * wants().
     */
    void setTraceSink(TraceSink *sink) { trace_ = sink; }

    /**
     * Earliest cycle at which any in-flight fill completes (a huge
     * sentinel when idle) — lets the core fast-forward idle stretches.
     */
    Cycle nextEventCycle() const;

    /**
     * True when queued prefetches could issue right now; the core must
     * not fast-forward past cycles in which the queue would drain.
     */
    bool prefetchWorkPending() const;

    /**
     * Idle skip-ahead support: each skipped cycle would have repeated
     * the last stepped cycle's failed MSHR retries exactly (no fill
     * drains inside the window, so every retry fails the same way);
     * the driver folds those counts back in to keep mshrStalls
     * bit-identical with the unskipped replay.
     */
    void addSkippedMshrStalls(std::uint64_t n)
    {
        stats_.mshrStalls += n;
    }

  private:
    /** Access the L2 on behalf of a data-side L1 miss. */
    Cycle l2DemandAccess(LineAddr line, Cycle t_l2, bool is_write,
                         bool is_data, unsigned core,
                         DemandClass &cls, bool &stall);

    /** Common L1 + L2 demand path for loads, stores and fetches. */
    AccessOutcome demandAccess(LineAddr line, Cycle now, bool is_write,
                               bool is_data, bool can_stall,
                               unsigned core);

    /** tick() on the first call in cycle @p now: the drains, then
     *  prefetch issue. */
    void tickNewCycle(Cycle now);

    void drainL2(Cycle now);
    void drainL1(Cycle now);
    void issuePrefetches(Cycle now);
    bool prefetchQueued(LineAddr line) const;

    /**
     * Banked shared-L2 arbitration: returns the cycle the access to
     * @p line actually enters the L2 (>= @p t). Each bank accepts one
     * access per cycle; a busy bank delays the access and counts a
     * conflict. Bypassed (returns @p t) in single-core runs.
     */
    Cycle arbitrateL2(LineAddr line, Cycle t);

    /**
     * Remember that @p aggressor's prefetch fill evicted the valid
     * line @p victim from the shared L2 (multicore only; the filter
     * is bounded at params.pollutionFilterEntries).
     */
    void recordPollutionEviction(LineAddr victim, unsigned aggressor);

    /**
     * Attribute a primary demand L2 miss by @p core on @p line: if a
     * different core's prefetch recently evicted the line, count it
     * as cross-core pollution against the aggressor.
     */
    void attributePollution(LineAddr line, unsigned core);

    /** One tagged entry of the prefetch request queue. */
    struct QueuedPrefetch
    {
        LineAddr line = 0;
        PfSource src = PfSource::Unknown;
        std::uint8_t core = 0;
    };

    /**
     * Remove the queued request for @p line, if any, recording it as
     * merged (a demand access took the miss over).
     */
    void mergeQueuedPrefetch(LineAddr line, Cycle now);

    /** Record a useful prefetch's lateness in the histogram. */
    void recordLateness(PfSource src, Cycle lateness);

    HierarchyParams params_;
    /**
     * Private L1s, one per core (index = core id). Single-core runs
     * hold exactly one of each, built with the original seeds, so the
     * one-core hierarchy is structurally identical to the historic
     * single-core model.
     */
    std::vector<Cache> l1d_;
    std::vector<Cache> l1i_;
    Cache l2_;
    std::vector<MshrFile> l1dMshr_;
    std::vector<MshrFile> l1iMshr_;
    MshrFile l2Mshr_;
    /**
     * Cycle up to which each shared-L2 bank is busy; sized l2Banks
     * when numCores > 1, empty (arbiter bypassed) otherwise.
     */
    std::vector<Cycle> bankBusyUntil_;
    /**
     * Bounded pollution filter: shared-L2 lines recently evicted by a
     * prefetch fill, mapped to the aggressor core. FIFO-bounded at
     * params.pollutionFilterEntries; empty in single-core runs.
     */
    std::unordered_map<LineAddr, std::uint8_t> pollutionMap_;
    std::deque<LineAddr> pollutionFifo_;
    std::deque<QueuedPrefetch> prefetchQueue_;
    /**
     * Lines currently in prefetchQueue_ (which never holds
     * duplicates). Demand misses and enqueue filtering probe queue
     * membership on the hot path; this index answers in O(1) what a
     * deque scan answered in O(queue depth).
     */
    std::unordered_set<LineAddr> queuedLines_;
    /** Mutable so stats() can mirror the backend counters in. */
    mutable HierarchyStats stats_;
    /** Main-memory timing model (selected by params.dramBackend). */
    std::unique_ptr<DramBackend> dram_;
    /**
     * Cycle whose MSHR drains have already run. tick() is invoked
     * once per cycle by the driver and again by every demand access,
     * but the drains are idempotent within a cycle (nothing allocated
     * at cycle N can complete at cycle N), so repeats skip straight
     * to prefetch issue. Prefetch issue itself is NOT memoized: its
     * per-invocation issue budget is visible behaviour.
     */
    Cycle lastDrainCycle_ = ~Cycle(0);
    /** Guards against double-counting in repeated finalize() calls. */
    bool finalized_ = false;
    TraceSink *trace_ = nullptr;
};

} // namespace cbws

#endif // CBWS_MEM_HIERARCHY_HH
