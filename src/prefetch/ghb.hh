/**
 * @file
 * Global History Buffer prefetching (Nesbit & Smith, HPCA'04) in its
 * two delta-correlation flavours used by the paper:
 *
 *  - GHB G/DC  — global delta correlation: one global miss stream.
 *  - GHB PC/DC — PC-localised delta correlation: per-PC miss streams
 *    threaded through the shared buffer.
 *
 * Both use a 256-entry circular history buffer, correlate on the last
 * two deltas (history length 3 addresses), and prefetch 3 deltas ahead
 * (Table II: history length 3, prefetch degree 3).
 */

#ifndef CBWS_PREFETCH_GHB_HH
#define CBWS_PREFETCH_GHB_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "prefetch/paramschema.hh"
#include "prefetch/prefetcher.hh"

namespace cbws
{

/** GHB configuration (Table II defaults). */
struct GhbParams
{
    unsigned bufferEntries = 256;
    unsigned historyLength = 3; ///< addresses per correlation window
    unsigned degree = 3;        ///< deltas prefetched on a match
    unsigned maxChainWalk = 64; ///< entries examined per lookup
    bool trainOnHits = false;
    unsigned pcBits = 48;       ///< for storage accounting
    unsigned strideBits = 12;
};

/** `--pf-opt` keys for GhbParams (shared by both GHB flavours). */
ParamSchema ghbParamSchema();

/**
 * Shared implementation of both GHB delta-correlation prefetchers.
 */
class GhbPrefetcher : public Prefetcher
{
  public:
    enum class Mode
    {
        GlobalDC,
        PcDC,
    };

    GhbPrefetcher(Mode mode, const GhbParams &params = GhbParams());

    void observeAccess(const PrefetchContext &ctx,
                 PrefetchSink &sink) override;

    PfStageMask stages() const override { return TrainsAtAccess; }
    std::uint64_t storageBits() const override;

    std::string
    name() const override
    {
        return mode_ == Mode::GlobalDC ? "GHB-G/DC" : "GHB-PC/DC";
    }

  private:
    struct Entry
    {
        LineAddr line = 0;
        /** Sequence number of the previous entry in this stream, or
         *  InvalidSeq. Sequence numbers (not buffer slots) make stale
         *  links detectable after wraparound. */
        std::uint64_t prevSeq = InvalidSeq;
        /** Buffer slot of that entry, so the walk needs no modulo. */
        std::uint32_t prevSlot = 0;
    };

    /** Newest entry of one stream. */
    struct StreamHead
    {
        std::uint64_t seq = InvalidSeq;
        std::uint32_t slot = 0;
    };

    static constexpr std::uint64_t InvalidSeq = ~std::uint64_t(0);

    /** True while sequence number @p seq is still in the buffer. */
    bool
    live(std::uint64_t seq) const
    {
        return seq != InvalidSeq && nextSeq_ - seq <= buffer_.size();
    }

    /**
     * Scan @p deltas (oldest -> newest, @p n entries) for the most
     * recent earlier occurrence of the trailing delta pair and issue
     * up to degree prefetches from @p trigger.
     */
    void correlateAndIssue(const std::int64_t *deltas, std::size_t n,
                           LineAddr trigger, PrefetchSink &sink) const;

    Mode mode_;
    GhbParams params_;
    std::vector<Entry> buffer_;
    std::uint64_t nextSeq_ = 0;
    /** Slot of sequence number nextSeq_. */
    std::uint32_t nextSlot_ = 0;
    /** Index table: key (0 for global mode, PC otherwise) -> newest
     *  entry of that stream. */
    std::unordered_map<Addr, StreamHead> indexTable_;
    /** One lookup's walk: its lines, then their deltas. Sized
     *  min(maxChainWalk, bufferEntries), the longest possible walk. */
    std::vector<std::int64_t> walk_;
};

} // namespace cbws

#endif // CBWS_PREFETCH_GHB_HH
