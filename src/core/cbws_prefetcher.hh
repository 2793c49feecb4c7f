/**
 * @file
 * The code block working set (CBWS) prefetcher — the paper's primary
 * contribution (Sections IV and V).
 *
 * Operation (Algorithm 1):
 *  - BLOCK_BEGIN clears the current-CBWS tracking state;
 *  - each memory access inside the block pushes its (distinct) line
 *    into the current CBWS and incrementally extends the k-step
 *    differentials against the last k CBWSs of the same block;
 *  - BLOCK_END stores each k-step differential into the differential
 *    history table under the k-step history register's tag, shifts the
 *    histories and last-CBWS buffers, then predicts: for every step k
 *    whose (new) history hits in the table, the predicted differential
 *    is added to the just-completed CBWS and the resulting lines are
 *    prefetched, skipping lines that are already cached.
 *
 * The standalone CBWS prefetcher issues prefetches *only* on a history
 * table hit — its confidence rule — and is otherwise silent, which is
 * what the CBWS add-on (CBWS+SMS) exploits for fallback.
 */

#ifndef CBWS_CORE_CBWS_PREFETCHER_HH
#define CBWS_CORE_CBWS_PREFETCHER_HH

#include <cstdint>
#include <vector>

#include "base/stats.hh"
#include "core/cbws_types.hh"
#include "core/diff_table.hh"
#include "prefetch/paramschema.hh"
#include "prefetch/prefetcher.hh"

namespace cbws
{

/** CBWS configuration; defaults follow Fig. 8 / Table II. */
struct CbwsParams
{
    /** Hardware FIFO depth: distinct lines traced per block (16). */
    unsigned maxVectorMembers = 16;
    /** Last CBWSs stored; also the deepest prediction step (4). */
    unsigned numSteps = 4;
    /** Differential hashes per history shift register (48/12 = 4). */
    unsigned historyDepth = 4;
    /** Bits per hashed differential in the shift registers (12). */
    unsigned hashBits = 12;
    /** Differential history table entries, fully associative (16). */
    unsigned tableEntries = 16;
    /** xor-folded history tag width (16). */
    unsigned tagBits = 16;
    /** Track all L1 accesses inside blocks (the compiler-hint
     *  aggressiveness of Section II); the ablation flips this to
     *  misses-only. */
    bool trainOnHits = true;
    /** Line-address bits kept per CBWS member (Fig. 8: lower 32). */
    unsigned memberBits = 32;
    /** Stride bits per differential element (16). */
    unsigned strideBits = 16;
    /** Random-eviction seed for the differential table. */
    std::uint64_t tableSeed = 0xCB;
};

/** `--pf-opt` keys for CbwsParams (also mounted by composites). */
ParamSchema cbwsParamSchema();

/** Counters specific to the CBWS scheme. */
struct CbwsSchemeStats
{
    std::uint64_t blocksCompleted = 0;
    std::uint64_t blocksTruncated = 0; ///< working set exceeded capacity
    std::uint64_t tableHits = 0;       ///< prediction lookups that hit
    std::uint64_t tableMisses = 0;
    std::uint64_t linesPredicted = 0;
    std::uint64_t accessesTracked = 0;
    std::uint64_t accessesOutsideBlock = 0;
};

/**
 * The standalone CBWS prefetcher.
 */
class CbwsPrefetcher : public Prefetcher
{
  public:
    explicit CbwsPrefetcher(const CbwsParams &params = CbwsParams());

    void observeCommit(const PrefetchContext &ctx,
                 PrefetchSink &sink) override;
    void blockBegin(BlockId id, PrefetchSink &sink) override;
    void blockEnd(BlockId id, PrefetchSink &sink) override;

    PfStageMask
    stages() const override
    {
        return TrainsAtCommit | TrainsOnBlocks;
    }

    std::uint64_t storageBits() const override;
    std::string name() const override { return "CBWS"; }

    void exportMetrics(MetricsRegistry &reg,
                       const std::string &prefix) const override;

    const CbwsSchemeStats &schemeStats() const { return stats_; }
    const CbwsParams &params() const { return params_; }

    /** Currently between BLOCK_BEGIN and BLOCK_END? */
    bool inBlock() const { return inBlock_; }

    /**
     * Did the most recent BLOCK_END produce at least one prediction?
     * The CBWS add-on gates its base (SMS in CBWS+SMS) on this.
     */
    bool lastBlockPredicted() const { return lastBlockPredicted_; }

    /** The working set recorded so far for the current block. */
    const CbwsVector &currentCbws() const { return currCbws_; }

    /**
     * Attach an instrumentation probe that records the identity of
     * every 1-step differential (drives the Fig. 5 skew analysis).
     * Pass nullptr to detach. Not part of the hardware.
     */
    void setDifferentialProbe(FrequencyCounter *probe)
    {
        probe_ = probe;
    }

  private:
    void resetBlockContext();

    CbwsParams params_;
    CbwsSchemeStats stats_;
    FrequencyCounter *probe_ = nullptr;

    bool inBlock_ = false;
    bool lastBlockPredicted_ = false;
    bool haveBlockId_ = false;
    BlockId currentBlockId_ = 0;
    bool currTruncated_ = false;

    /** Current CBWS buffer (Fig. 8). */
    CbwsVector currCbws_;
    /** Last-blocks CBWS buffer: prev_[k-1] is the CBWS k blocks ago. */
    std::vector<CbwsVector> prev_;
    /** Current differentials buffer, one per step, built
     *  incrementally on every access (Fig. 10). */
    std::vector<CbwsDifferential> currDiff_;
    /** History shift registers, one per step. */
    std::vector<HistoryShiftRegister> history_;
    /** The differential history table. */
    DifferentialTable table_;
};

} // namespace cbws

#endif // CBWS_CORE_CBWS_PREFETCHER_HH
