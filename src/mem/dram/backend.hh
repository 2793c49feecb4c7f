/**
 * @file
 * Pluggable main-memory timing backends.
 *
 * The hierarchy used to hard-code one flat formula (dramLatency plus
 * an optional global issue throttle). That made prefetch timeliness
 * and bandwidth contention — the effects the paper's Fig. 10-13
 * coverage/accuracy analysis hinges on — invisible below the L2.
 * A DramBackend answers the only question the hierarchy asks of main
 * memory ("a fill request reaches the controller at cycle T; when is
 * its data back at the L2?") while modelling whatever it likes
 * internally: the `fixed` backend reproduces the legacy flat latency
 * bit-for-bit, the `ddr` backend models channels/ranks/banks with
 * open-page row buffers, DDR timing constraints, read/write queues
 * and an FR-FCFS-style scheduler that deprioritises prefetch-sourced
 * requests under queue pressure.
 *
 * Backends are listed by name in one constant table beside Hierarchy
 * (hierarchy.cc); consumers select one via
 * HierarchyParams::dramBackend ("fixed" is the default) or the
 * `cbws-sim --dram <backend>` flag. Adding a backend is one row in
 * that table plus its make…Backend() factory.
 *
 * Contract required of every backend:
 *  - Deterministic: completion cycles are a pure function of the
 *    request sequence (no wall clock, no randomness), so matrix
 *    results stay bit-identical across --jobs and resume.
 *  - Near-monotone arrivals: the hierarchy issues requests in
 *    simulation order, but arrival stamps may regress by a few cycles
 *    (prefetch issue vs. demand paths add different upstream
 *    latencies). Backends must tolerate that.
 *  - Responses per bank/stream are monotone: a later request to the
 *    same internal resource never completes before an earlier one.
 */

#ifndef CBWS_MEM_DRAM_BACKEND_HH
#define CBWS_MEM_DRAM_BACKEND_HH

#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "base/result.hh"
#include "base/types.hh"

namespace cbws
{

struct HierarchyParams;

/** One fill request as seen by the memory controller. */
struct DramRequest
{
    LineAddr line = 0;
    /** Cycle the request reaches the controller. */
    Cycle arrival = 0;
    /** The fill was initiated by a prefetcher (deprioritisable). */
    bool isPrefetch = false;
    /** Lifecycle attribution of prefetch-initiated fills. */
    PfSource src = PfSource::Unknown;
};

/** Counters every backend maintains (zeros where not modelled). */
struct DramStats
{
    std::uint64_t reads = 0;  ///< fill requests serviced
    std::uint64_t writes = 0; ///< writebacks accepted

    // Row-buffer outcome of each serviced column access.
    std::uint64_t rowHits = 0;   ///< open row matched
    std::uint64_t rowMisses = 0; ///< conflicting row was open
    std::uint64_t rowClosed = 0; ///< bank had no open row

    std::uint64_t activates = 0;     ///< ACT commands issued
    std::uint64_t fawStalls = 0;     ///< ACTs delayed by tFAW
    std::uint64_t refreshStalls = 0; ///< requests delayed by refresh

    /** Prefetch reads deferred by the bandwidth-aware throttle. */
    std::uint64_t prefetchesDeferred = 0;
    /** Total cycles deferred prefetches waited out. */
    std::uint64_t deferralCycles = 0;

    std::uint64_t readQueueFullStalls = 0; ///< admissions blocked
    std::uint64_t writeDrains = 0;         ///< drain bursts entered

    /** Data-bus busy cycles (utilisation = busy / elapsed). */
    std::uint64_t busBusyCycles = 0;

    // Queue-depth-at-arrival accumulators (averages = sum / reads).
    std::uint64_t readQueueDepthSum = 0;
    std::uint64_t writeQueueDepthSum = 0;

    /** Every counter, in declaration order (the checkpoint `dram`
     *  array). */
    static constexpr std::uint64_t DramStats::*Counters[] = {
        &DramStats::reads,
        &DramStats::writes,
        &DramStats::rowHits,
        &DramStats::rowMisses,
        &DramStats::rowClosed,
        &DramStats::activates,
        &DramStats::fawStalls,
        &DramStats::refreshStalls,
        &DramStats::prefetchesDeferred,
        &DramStats::deferralCycles,
        &DramStats::readQueueFullStalls,
        &DramStats::writeDrains,
        &DramStats::busBusyCycles,
        &DramStats::readQueueDepthSum,
        &DramStats::writeQueueDepthSum,
    };

    /** Row hits per column access ([0,1]; 0 when nothing serviced). */
    double
    rowHitRate() const
    {
        const std::uint64_t total = rowHits + rowMisses + rowClosed;
        return total ? static_cast<double>(rowHits) /
                           static_cast<double>(total)
                     : 0.0;
    }

    double
    avgReadQueueDepth() const
    {
        return reads ? static_cast<double>(readQueueDepthSum) /
                           static_cast<double>(reads)
                     : 0.0;
    }

    double
    avgWriteQueueDepth() const
    {
        return writes ? static_cast<double>(writeQueueDepthSum) /
                            static_cast<double>(writes)
                      : 0.0;
    }

    /** Exact equality (determinism assertions in tests). */
    bool operator==(const DramStats &) const = default;
};

static_assert(sizeof(DramStats) ==
                  std::size(DramStats::Counters) * sizeof(std::uint64_t),
              "a DramStats counter is missing from DramStats::Counters");

/**
 * A main-memory timing model. One instance per Hierarchy (per
 * simulation cell), so implementations need no thread safety.
 */
class DramBackend
{
  public:
    virtual ~DramBackend() = default;

    /** Registry name this instance was created under. */
    virtual const char *name() const = 0;

    /**
     * Service a fill request; returns the cycle the line is available
     * at the L2. Must be >= req.arrival and deterministic.
     */
    virtual Cycle read(const DramRequest &req) = 0;

    /**
     * Accept a writeback leaving the L2 at @p arrival. Writes are
     * fire-and-forget for the hierarchy (a store buffer is assumed);
     * backends may queue them and steal read bandwidth to drain.
     */
    virtual void write(LineAddr line, Cycle arrival) = 0;

    const DramStats &stats() const { return stats_; }

    /** Zero the counters; timing state is preserved (warm-up). */
    void resetStats() { stats_ = DramStats(); }

  protected:
    DramStats stats_;
};

/** The flat-latency backend (fixed.cc). */
std::unique_ptr<DramBackend> makeFixedBackend(const HierarchyParams &params);

/** The banked DDR timing model (ddr.cc). */
std::unique_ptr<DramBackend> makeDdrBackend(const HierarchyParams &params);

/**
 * Name-keyed queries over the constant backend table beside
 * Hierarchy (hierarchy.cc). Lookup is case-insensitive.
 */
class DramBackendRegistry
{
  public:
    /** Instantiate the backend named @p name (case-insensitive).
     *  NotFound lists the registered names. */
    Result<std::unique_ptr<DramBackend>>
    create(const std::string &name, const HierarchyParams &params) const;

    bool contains(const std::string &name) const;

    /** Canonical names, sorted (stable `--dram help` output). */
    std::vector<std::string> names() const;

    /** Description of @p name (empty when unknown). */
    std::string describe(const std::string &name) const;
};

/** The process-wide registry. */
const DramBackendRegistry &dramBackendRegistry();

} // namespace cbws

#endif // CBWS_MEM_DRAM_BACKEND_HH
