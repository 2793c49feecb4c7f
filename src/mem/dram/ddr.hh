/**
 * @file
 * The `ddr` DRAM backend: a cycle-level banked timing model.
 *
 * Geometry: channels x ranks x banks, open-page row-buffer policy.
 * Each fill request decodes to (channel, rank, bank, row) with
 * consecutive lines filling a row before moving to the next bank —
 * the streaming-friendly mapping open-page controllers use — and is
 * scheduled against:
 *
 *  - the bank's row buffer (row hit: CAS only; row miss: PRE + ACT +
 *    CAS; closed bank: ACT + CAS) with tRCD/tRP/tCL timing,
 *  - the rank's four-activate window (tFAW): a 5th ACT inside the
 *    window waits until the oldest of the last four leaves it,
 *  - per-rank refresh: every tREFI cycles the rank is busy for tRFC
 *    and all of its row buffers are closed,
 *  - the channel data bus (tBURST per 64 B line), and
 *  - the controller queues: a bounded read queue (a full queue
 *    back-pressures admission) and a separate write queue drained in
 *    bursts — when buffered writebacks reach the high watermark the
 *    controller switches to write-drain mode, servicing writes
 *    back-to-back down to the low watermark while arriving reads
 *    wait.
 *
 * Scheduling is an FR-FCFS approximation at request granularity:
 * requests are admitted in arrival order, row hits are served at CAS
 * speed while conflicts pay the precharge/activate path, and the
 * scheduler deprioritises prefetch-sourced requests under queue
 * pressure — a prefetch arriving when the read queue holds
 * `prefetchDeferThreshold` or more entries is deferred until the
 * queue drains below the threshold (the bandwidth-aware throttle
 * keyed off the request's PfSource tag). Demands are never deferred.
 *
 * Everything is computed at request time from integer state, so
 * completion cycles are a pure function of the request sequence:
 * deterministic across --jobs counts and checkpoint resume. Per-bank
 * responses are clamped monotone (a later request to a bank never
 * completes before an earlier one).
 */

#ifndef CBWS_MEM_DRAM_DDR_HH
#define CBWS_MEM_DRAM_DDR_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "mem/dram/backend.hh"
#include "mem/params.hh"

namespace cbws
{

class DdrBackend : public DramBackend
{
  public:
    explicit DdrBackend(const HierarchyParams &params);

    const char *name() const override { return "ddr"; }

    Cycle read(const DramRequest &req) override;
    void write(LineAddr line, Cycle arrival) override;

    /** The geometry/timing this instance runs with. */
    const DdrParams &timing() const { return ddr_; }

  private:
    /** A line address decoded to its DRAM coordinates. */
    struct Decoded
    {
        unsigned channel = 0;
        unsigned bank = 0; ///< global bank index
        unsigned rank = 0; ///< global rank index
        std::uint64_t row = 0;
    };

    struct Bank
    {
        static constexpr std::uint64_t NoRow = ~std::uint64_t(0);
        std::uint64_t openRow = NoRow;
        /** Earliest cycle the bank accepts its next command. */
        Cycle readyAt = 0;
        /** Monotonicity clamp for responses from this bank. */
        Cycle lastCompletion = 0;
    };

    struct Rank
    {
        /** Completion times of the last <= 4 ACTs (tFAW window). */
        std::deque<Cycle> actTimes;
        /** Last refresh epoch whose row-close was applied. */
        Cycle refreshEpoch = 0;
    };

    struct BufferedWrite
    {
        LineAddr line = 0;
        Cycle arrival = 0;
    };

    struct Channel
    {
        /** Cycle the data bus frees up. */
        Cycle busFreeAt = 0;
        /** End of the write-drain burst in progress, if any. */
        Cycle drainBusyUntil = 0;
        /** Min-heap of outstanding read completion times. */
        std::vector<Cycle> readOutstanding;
        std::deque<BufferedWrite> writeQueue;
    };

    Decoded decode(LineAddr line) const;

    /** Retire outstanding reads completed by @p now. */
    void retireReads(Channel &ch, Cycle now);

    /** Pop the earliest outstanding read; returns its completion. */
    Cycle popEarliestRead(Channel &ch);

    /**
     * Apply refresh to a command wanting to start at @p t on
     * @p rank: advance past an active tRFC blackout and close the
     * rank's row buffers when a new refresh epoch began.
     */
    Cycle refreshAdjust(unsigned rank, Cycle t);

    /** Constrain an ACT at @p t by the rank's tFAW window. */
    Cycle fawAdjust(Rank &rank, Cycle t);

    /**
     * Schedule the bank/bus portion of one column access starting no
     * earlier than @p t; returns the cycle its data leaves the bus.
     * Updates row-buffer state and the row-hit statistics.
     */
    Cycle serviceColumn(const Decoded &d, Cycle t);

    /** Write-drain burst: service buffered writes down to the low
     *  watermark, starting at @p now. */
    void drainWrites(Channel &ch, Cycle now);

    const DdrParams ddr_;
    std::vector<Bank> banks_;       ///< [totalBanks]
    std::vector<Rank> ranks_;       ///< [channels * ranksPerChannel]
    std::vector<Channel> channels_; ///< [channels]
};

} // namespace cbws

#endif // CBWS_MEM_DRAM_DDR_HH
