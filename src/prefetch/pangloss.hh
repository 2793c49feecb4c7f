/**
 * @file
 * Pangloss-style Markov-chain delta prefetcher (after "Pangloss: a
 * novel Markov chain prefetcher").
 *
 * Accesses are tracked per 4 KB page. The transition from the
 * previous in-page line delta to the current one feeds a Markov chain
 * stored as a compressed transition table: one set per source delta,
 * each holding a handful of (next-delta, count) candidates with small
 * saturating counters. When a counter saturates every counter in the
 * set is halved (zeros are dropped), which both compresses the table
 * and ages out stale transitions — the frequency ordering survives at
 * a fraction of the storage of a full Markov matrix.
 *
 * Prediction chain-walks the table: starting from the current delta,
 * repeatedly follow the most probable next delta while its share of
 * the set's total count clears the confidence threshold, issuing up
 * to degree prefetches without leaving the page.
 */

#ifndef CBWS_PREFETCH_PANGLOSS_HH
#define CBWS_PREFETCH_PANGLOSS_HH

#include <cstdint>
#include <vector>

#include "prefetch/lru_table.hh"
#include "prefetch/paramschema.hh"
#include "prefetch/prefetcher.hh"

namespace cbws
{

/** Pangloss prefetcher configuration. */
struct PanglossParams
{
    std::uint64_t pageBytes = 4096; ///< delta-tracking granularity
    unsigned pageEntries = 256;     ///< tracked pages, LRU
    unsigned assoc = 16;     ///< candidates per transition set
    unsigned maxCounter = 15; ///< saturating count; halve set beyond
    unsigned degree = 6;     ///< deepest chain walk per trigger
    unsigned confidencePct = 25; ///< min share of set total to follow
    bool trainOnHits = true; ///< the chain needs the full stream
    unsigned counterBits = 4; ///< for storage accounting
    unsigned tagBits = 36;    ///< page tag width (storage accounting)
};

/** `--pf-opt` keys for PanglossParams. */
ParamSchema panglossParamSchema();

/**
 * Per-page Markov chain over cache-line deltas with a compressed
 * transition table and confidence-thresholded multi-degree issue.
 */
class PanglossPrefetcher : public Prefetcher
{
  public:
    explicit PanglossPrefetcher(
        const PanglossParams &params = PanglossParams());

    void observeAccess(const PrefetchContext &ctx,
                       PrefetchSink &sink) override;

    PfStageMask stages() const override { return TrainsAtAccess; }
    std::uint64_t storageBits() const override;
    std::string name() const override { return "Pangloss"; }

    void exportMetrics(MetricsRegistry &reg,
                       const std::string &prefix) const override;

  private:
    struct PageEntry
    {
        unsigned lastOffset = 0;  ///< line index within the page
        std::int32_t lastDelta = 0;
        bool haveDelta = false;   ///< lastDelta holds a transition src
    };

    /** One (next-delta, count) candidate of a transition set. */
    struct Candidate
    {
        std::int32_t delta = 0;
        unsigned count = 0;
    };

    unsigned linesPerPage() const;
    /** Transition-set index of a (non-zero) in-page delta. */
    std::size_t setIndex(std::int32_t delta) const;
    void recordTransition(std::int32_t from, std::int32_t to);
    /** Most probable candidate clearing confidencePct, or nullptr. */
    const Candidate *bestNext(std::int32_t from) const;

    PanglossParams params_;
    LruTable<std::uint64_t, PageEntry> pages_; ///< keyed by page
    /** Transition sets indexed by setIndex(from). */
    std::vector<std::vector<Candidate>> transitions_;

    std::uint64_t transitionsRecorded_ = 0;
    std::uint64_t setsCompressed_ = 0;
    std::uint64_t chainWalks_ = 0;
    std::uint64_t issued_ = 0;
};

} // namespace cbws

#endif // CBWS_PREFETCH_PANGLOSS_HH
