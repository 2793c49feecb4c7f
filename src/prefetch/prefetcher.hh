/**
 * @file
 * Abstract prefetcher interface.
 *
 * Prefetchers train at the stages they declare (stages()): memory
 * operations accessing the cache and committed memory operations are
 * delivered via observe() together with their access outcome, and the
 * committed BLOCK_BEGIN/BLOCK_END markers via blockBegin()/blockEnd().
 * Prefetch requests are emitted through a PrefetchSink, which the
 * simulator connects to the hierarchy's prefetch-into-L2 queue.
 */

#ifndef CBWS_PREFETCH_PREFETCHER_HH
#define CBWS_PREFETCH_PREFETCHER_HH

#include <cstdint>
#include <string>

#include "base/types.hh"

namespace cbws
{

class MetricsRegistry;

/** One committed memory access, as seen by a prefetcher. */
struct PrefetchContext
{
    Addr pc = 0;
    Addr addr = 0;
    LineAddr line = 0;
    bool isWrite = false;
    bool l1Hit = false;
    /** Demand access reached the L2 and the data was not ready (a
     *  true last-level miss, including merges into in-flight fills).
     *  Miss-triggered prefetchers (Stride, GHB) train on this. */
    bool l2Miss = false;
};

/** Where prefetchers send their requests. */
class PrefetchSink
{
  public:
    virtual ~PrefetchSink() = default;

    /**
     * Request that @p line be brought into the L2. @p src identifies
     * the component that generated the request, for lifecycle
     * accounting; sinks that do not track attribution ignore it.
     * (Single entry point — the old unattributed overload is gone.)
     */
    virtual void issuePrefetch(LineAddr line,
                               PfSource src = PfSource::Unknown) = 0;

    /**
     * True when @p line is already resident in (or in flight to) the
     * L2 — used by prefetchers to skip useless requests ("skipping
     * addresses that are already cached").
     */
    virtual bool isCached(LineAddr line) const = 0;
};

/** Pipeline stage a training notification originates from. */
enum class PfStage : std::uint8_t
{
    Access, ///< the operation accessed the cache (execute time)
    Commit, ///< the operation committed, in program order
};

/**
 * Bit set of the training stages a scheme uses (Prefetcher::stages()).
 * The simulator delivers only the declared stages: the hooks of a
 * stage left out are never installed.
 */
using PfStageMask = std::uint8_t;
constexpr PfStageMask TrainsAtAccess = 1u << 0; ///< observeAccess()
constexpr PfStageMask TrainsAtCommit = 1u << 1; ///< observeCommit()
constexpr PfStageMask TrainsOnBlocks = 1u << 2; ///< blockBegin/End()

/**
 * One training notification delivered to a prefetcher: the committed
 * or executed access plus the stage it was observed at. The single
 * struct replaces the parallel observeAccess/observeCommit plumbing
 * between the core models and the prefetchers.
 */
struct PrefetchEvent
{
    PfStage stage = PfStage::Access;
    PrefetchContext ctx;
};

/**
 * Base class of all prefetchers.
 *
 * Two training points are offered, matching how the paper's schemes
 * are attached in gem5:
 *  - observeAccess(): invoked when a memory operation accesses the
 *    cache (loads at execute — possibly out of program order — and
 *    stores at commit). This is where conventional cache-attached
 *    prefetchers (Stride, GHB, SMS) train.
 *  - observeCommit(): invoked from the in-order commit stage, in
 *    program order. The CBWS prefetcher trains here, as Section V
 *    requires ("the prefetcher obtains the address sequence from the
 *    in-order commit stage").
 */
class Prefetcher
{
  public:
    virtual ~Prefetcher() = default;

    /**
     * Single delivery point used by the simulator plumbing: routes
     * @p event to the per-stage training hook matching its stage.
     * Schemes override the hooks; composite schemes that need the
     * whole event may call this on their children.
     */
    void
    observe(const PrefetchEvent &event, PrefetchSink &sink)
    {
        if (event.stage == PfStage::Access)
            observeAccess(event.ctx, sink);
        else
            observeCommit(event.ctx, sink);
    }

    /** A memory operation accessing the cache (execute time). */
    virtual void
    observeAccess(const PrefetchContext &ctx, PrefetchSink &sink)
    {
        (void)ctx;
        (void)sink;
    }

    /** A committed memory access, delivered in program order. */
    virtual void
    observeCommit(const PrefetchContext &ctx, PrefetchSink &sink)
    {
        (void)ctx;
        (void)sink;
    }

    /** A committed BLOCK_BEGIN marker. */
    virtual void blockBegin(BlockId id, PrefetchSink &sink)
    {
        (void)id;
        (void)sink;
    }

    /** A committed BLOCK_END marker. */
    virtual void blockEnd(BlockId id, PrefetchSink &sink)
    {
        (void)id;
        (void)sink;
    }

    /**
     * The training stages this scheme acts on. The simulator skips
     * the others, so every hook of an undeclared stage must be a
     * no-op here; the benchmark suite's traced run, which delivers
     * every stage, checks that its results are unchanged.
     */
    virtual PfStageMask stages() const = 0;

    /** Hardware budget of the scheme, in bits (Table III). */
    virtual std::uint64_t storageBits() const = 0;

    /** Human-readable scheme name. */
    virtual std::string name() const = 0;

    /**
     * Register scheme-internal counters (table occupancy, training
     * hits, ...) into @p reg under dotted paths below @p prefix
     * (e.g. "pf.scheme"). The default exports nothing; composite
     * schemes should delegate to their components. Called once at the
     * end of a run, so implementations need not be cheap.
     */
    virtual void
    exportMetrics(MetricsRegistry &reg, const std::string &prefix) const
    {
        (void)reg;
        (void)prefix;
    }
};

/**
 * The no-prefetching baseline.
 */
class NullPrefetcher : public Prefetcher
{
  public:
    PfStageMask stages() const override { return 0; }
    std::uint64_t storageBits() const override { return 0; }
    std::string name() const override { return "No-Prefetch"; }
};

} // namespace cbws

#endif // CBWS_PREFETCH_PREFETCHER_HH
