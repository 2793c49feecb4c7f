/**
 * @file
 * Access Map Pattern Matching prefetcher (Ishii, Inaba & Hiraki,
 * JILP 2011) — discussed in the paper's related work (Section III-A)
 * as a zone-based scheme with no notion of code blocks.
 *
 * Memory is divided into fixed zones; each tracked zone carries a
 * per-line access bitmap. On every trained access the prefetcher
 * pattern-matches candidate strides k against the map: if lines
 * (l - k) and (l - 2k) were accessed, line (l + k) is predicted hot
 * and prefetched. As the paper notes, AMPM "first identifies patterns
 * inside an iteration and, only if such patterns are not found, may
 * identify patterns across iterations" — it is PC-blind, which is
 * exactly the contrast the CBWS add-on extension bench explores.
 */

#ifndef CBWS_PREFETCH_AMPM_HH
#define CBWS_PREFETCH_AMPM_HH

#include <cstdint>
#include <vector>

#include "prefetch/lru_table.hh"
#include "prefetch/paramschema.hh"
#include "prefetch/prefetcher.hh"

namespace cbws
{

/** AMPM configuration. */
struct AmpmParams
{
    std::uint64_t zoneBytes = 4096; ///< access-map granularity
    unsigned mapEntries = 64;       ///< tracked zones, LRU
    unsigned maxStride = 16;        ///< candidate strides: +-1..max
    unsigned degree = 2;            ///< prefetches per trained access
    bool trainOnHits = false;       ///< misses-only, like GHB
    unsigned tagBits = 36;          ///< for storage accounting
};

/** `--pf-opt` keys for AmpmParams (also mounted by CBWS+AMPM). */
ParamSchema ampmParamSchema();

/**
 * The AMPM prefetcher.
 */
class AmpmPrefetcher : public Prefetcher
{
  public:
    explicit AmpmPrefetcher(const AmpmParams &params = AmpmParams());

    void observeAccess(const PrefetchContext &ctx,
                       PrefetchSink &sink) override;

    PfStageMask stages() const override { return TrainsAtAccess; }
    std::uint64_t storageBits() const override;
    std::string name() const override { return "AMPM"; }

    unsigned linesPerZone() const { return linesPerZone_; }

  private:
    /** Per-line access bits of one zone. */
    using ZoneMap = std::vector<bool>;

    AmpmParams params_;
    unsigned linesPerZone_;
    LruTable<Addr, ZoneMap> maps_; ///< keyed by zone
};

} // namespace cbws

#endif // CBWS_PREFETCH_AMPM_HH
