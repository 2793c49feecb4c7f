/**
 * @file
 * Deterministic fault-injection harness.
 *
 * Robustness code is only as good as its failure paths, and failure
 * paths are exactly the code that never runs. This harness plants
 * named fault *sites* at the simulator's I/O seams — trace-cache
 * reads/writes and checkpoint appends — and fires manufactured
 * failures at them on a deterministic schedule, so every degradation
 * path (fall back to re-synthesis, warn-and-continue) can be
 * exercised in tests and CI with a fixed seed.
 *
 * Determinism: each site keeps an atomic hit counter, and whether hit
 * number n fires is a pure function of (seed, site, n). Under a
 * parallel run the *set* of firing hits is therefore reproducible
 * even though which thread observes them is not.
 *
 * Configuration:
 *  - programmatic (tests): arm()/armAt()/reset() on instance();
 *  - environment (CLI surfaces): CBWS_FAULT holds a comma-separated
 *    list of "site:rate" (probability per hit, e.g.
 *    "trace-cache-corrupt:0.5") and/or "site@n" (fire exactly on hit
 *    n, 1-based) scenarios; CBWS_FAULT_SEED seeds the schedule
 *    (default 1). Unset CBWS_FAULT disables everything at a single
 *    branch per site.
 */

#ifndef CBWS_BASE_FAULTINJECT_HH
#define CBWS_BASE_FAULTINJECT_HH

#include <atomic>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "base/result.hh"

namespace cbws
{

/** Seams where a manufactured failure can be planted. */
enum class FaultSite : unsigned
{
    TraceCacheLoad,    ///< I/O error reading a trace-cache file
    TraceCacheStore,   ///< failure writing a trace-cache file
    TraceCacheCorrupt, ///< corrupt a trace-cache file after publish
    CheckpointAppend,  ///< failure appending a checkpoint record
    NumSites,
};

constexpr unsigned NumFaultSites =
    static_cast<unsigned>(FaultSite::NumSites);

/** Stable kebab-case site name (CBWS_FAULT syntax, log lines). */
const char *toString(FaultSite site);

class FaultInjector
{
  public:
    /** The process-wide injector every fault site consults. */
    static FaultInjector &instance();

    /** Disarm every site and zero the counters. */
    void reset();

    /**
     * Arm @p site to fire each hit independently with probability
     * @p rate, on a schedule derived from @p seed (deterministic per
     * hit index). rate <= 0 disarms, rate >= 1 fires on every hit.
     */
    void arm(FaultSite site, double rate, std::uint64_t seed = 1);

    /** Arm @p site to fire exactly on the listed hit numbers
     *  (1-based); all other hits pass. */
    void armAt(FaultSite site, std::vector<std::uint64_t> hits);

    /**
     * Parse CBWS_FAULT / CBWS_FAULT_SEED. Returns an error (leaving
     * the injector reset) on malformed syntax or unknown site names;
     * an unset/empty CBWS_FAULT is success with everything disarmed.
     */
    Result<void> configureFromEnv();

    /**
     * Count a hit at @p site and report whether the scheduled fault
     * fires on it. Thread-safe; false in a single load when the site
     * is disarmed.
     */
    bool shouldFire(FaultSite site);

    /** True when any site is armed (cheap global gate). */
    bool anyArmed() const { return anyArmed_.load(); }

    std::uint64_t hits(FaultSite site) const;
    std::uint64_t fired(FaultSite site) const;

  private:
    FaultInjector() = default;

    struct SiteState
    {
        std::atomic<bool> armed{false};
        double rate = 0.0;
        std::uint64_t seed = 1;
        std::set<std::uint64_t> exactHits; ///< 1-based; empty = rate
        std::atomic<std::uint64_t> hits{0};
        std::atomic<std::uint64_t> fired{0};
    };

    SiteState sites_[NumFaultSites];
    std::atomic<bool> anyArmed_{false};
};

namespace faultinject
{

/** How corruptFile() damages its target. */
enum class CorruptMode
{
    Truncate, ///< cut the file roughly in half
    FlipBytes ///< xor a handful of bytes in place
};

/**
 * Deterministically damage the file at @p path (used by the
 * trace-cache corruption site and by tests). NotFound/IoError when
 * the file cannot be opened or rewritten.
 */
Result<void> corruptFile(const std::string &path, CorruptMode mode,
                         std::uint64_t seed);

} // namespace faultinject

} // namespace cbws

#endif // CBWS_BASE_FAULTINJECT_HH
