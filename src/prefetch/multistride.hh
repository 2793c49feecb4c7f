/**
 * @file
 * IP-indexed multi-stride prefetcher (after Blom et al.): a hybrid
 * between the classic reference-prediction-table stride scheme and a
 * short per-PC delta-pattern matcher.
 *
 * Each table entry remembers the last few line deltas produced by one
 * PC and looks for the shortest repeating cycle of period p <=
 * max-period. Period 1 degenerates to the classic stride case;
 * periods 2..p capture the multi-strided sequences that interleaved
 * array walks (A[i], B[i], A[i+1], ... from a single load PC after
 * unrolling, or strided accesses with a wrap-around correction)
 * produce and that a single-stride table mispredicts. Once a period
 * has repeated confidence-threshold times, the upcoming deltas of the
 * cycle are issued degree lines ahead.
 */

#ifndef CBWS_PREFETCH_MULTISTRIDE_HH
#define CBWS_PREFETCH_MULTISTRIDE_HH

#include <cstdint>
#include <vector>

#include "prefetch/lru_table.hh"
#include "prefetch/paramschema.hh"
#include "prefetch/prefetcher.hh"

namespace cbws
{

/** Multi-stride prefetcher configuration. */
struct MultistrideParams
{
    unsigned tableEntries = 256; ///< PC-indexed, fully assoc., LRU
    unsigned historyLength = 8;  ///< line deltas remembered per PC
    unsigned maxPeriod = 4;      ///< longest repeating delta cycle
    unsigned degree = 4;         ///< lines prefetched per trigger
    unsigned confidenceThreshold = 2; ///< period repeats before issue
    bool trainOnHits = true;     ///< patterns live in the hit stream
    unsigned pcBits = 48;        ///< for storage accounting
    unsigned strideBits = 16;
};

/** `--pf-opt` keys for MultistrideParams. */
ParamSchema multistrideParamSchema();

/**
 * Per-PC delta-cycle detector with multi-degree issue.
 */
class MultistridePrefetcher : public Prefetcher
{
  public:
    explicit MultistridePrefetcher(
        const MultistrideParams &params = MultistrideParams());

    void observeAccess(const PrefetchContext &ctx,
                       PrefetchSink &sink) override;

    PfStageMask stages() const override { return TrainsAtAccess; }
    std::uint64_t storageBits() const override;
    std::string name() const override { return "Multistride"; }

    void exportMetrics(MetricsRegistry &reg,
                       const std::string &prefix) const override;

  private:
    struct Entry
    {
        LineAddr lastLine = 0;
        bool primed = false;     ///< lastLine holds a real address
        std::vector<std::int64_t> deltas; ///< oldest first
        unsigned period = 0;     ///< detected cycle length (0 = none)
        unsigned confidence = 0;
    };

    /** Shortest p <= maxPeriod with deltas[i] == deltas[i-p]. */
    unsigned detectPeriod(const std::vector<std::int64_t> &deltas)
        const;

    MultistrideParams params_;
    LruTable<Addr, Entry> table_; ///< keyed by PC

    std::uint64_t trainedAccesses_ = 0;
    std::uint64_t periodsDetected_ = 0;
    std::uint64_t issued_ = 0;
};

} // namespace cbws

#endif // CBWS_PREFETCH_MULTISTRIDE_HH
