/**
 * @file
 * Trace-driven out-of-order core model.
 *
 * The core consumes a TraceRecord stream and models a 4-wide OoO
 * pipeline per Table II: 128-entry ROB, 32/32 LDQ/STQ, 6 functional
 * units, a tournament branch predictor, and fetch through the L1I.
 * Scheduling is dependency-driven: each source operand waits for the
 * latest older writer of its register (perfect renaming — WAR/WAW
 * hazards do not stall).
 *
 * Traces contain only correct-path instructions, so branch
 * mispredictions are modelled as fetch stalls: fetch is suspended from
 * the mispredicted branch until it executes, plus a fixed redirect
 * penalty — the standard trace-driven approximation.
 *
 * Memory instructions observe the hierarchy at execute (issue) time;
 * *committed* memory operations are handed to the prefetcher in
 * program order, exactly as the paper requires ("the prefetcher
 * obtains the address sequence from the in-order commit stage").
 *
 * There is one cycle loop, runCores(), which steps one or more cores
 * in lockstep over a shared hierarchy through the begin()/step()/
 * finish() API. run() is begin() + runCores() over this core alone;
 * sim/simulator.cc drives every core count through runCores().
 *
 * Replay-speed machinery (all architecturally invisible; see
 * PERFORMANCE.md):
 *  - ROB entries hold a trace *index* instead of a record copy; a
 *    record's sequence number equals its trace index because every
 *    record dispatches exactly once, in program order.
 *  - Dispatch renames through a last-writer table: per architectural
 *    register, the trace index (== sequence number) of its latest
 *    dispatched writer. Fetch and issue derive cache lines and block
 *    membership from the record they already read.
 *  - Ready list: at dispatch an entry joins the wake list of each
 *    producer that has not issued and counts them; a producer's
 *    issue folds its completion cycle into each consumer's issue
 *    bound and sets the ready bit of consumers whose count reaches
 *    0. Issue selects from the ready bits alone.
 *  - Store queue: in-flight stores in program order as (line, ROB
 *    slot); forwarding searches it youngest-first, and only when a
 *    per-line-hash count of in-flight stores says one may match.
 *  - A load that fails on a full L1D MSHR file is not retried
 *    against the hierarchy until the file can drain
 *    (Hierarchy::l1dBlockedUntil); earlier retries only replay the
 *    failed retry's effects (Hierarchy::repeatBlockedLoad).
 *  - Issued completion times feed a min-heap so nextLocalEvent() is
 *    O(log n) instead of an O(ROB) scan per idle query.
 *  - All ring-buffer walks use wrap-around index arithmetic; the
 *    hot loops contain no division.
 */

#ifndef CBWS_CPU_CORE_HH
#define CBWS_CPU_CORE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "cpu/branch_pred.hh"
#include "mem/hierarchy.hh"
#include "trace/trace.hh"

namespace cbws
{

/** Core configuration (Table II defaults). */
struct CoreParams
{
    unsigned width = 4;          ///< fetch/dispatch/issue/commit width
    unsigned robSize = 128;
    unsigned ldqSize = 32;
    unsigned stqSize = 32;
    unsigned numFUs = 6;
    unsigned memPortsPerCycle = 2;
    unsigned fetchQueueSize = 16;
    unsigned issueWindow = 48;   ///< how deep issue scans into the ROB
    Cycle mispredictPenalty = 10;///< redirect cycles after resolution
    Cycle intAluLatency = 1;
    Cycle intMulLatency = 4;
    Cycle fpLatency = 3;
    BranchPredParams branchPred;
};

/** Statistics reported by one core run. */
struct CoreStats
{
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0; ///< committed (markers included)
    std::uint64_t memInstructions = 0;
    std::uint64_t branches = 0;
    std::uint64_t branchMispredicts = 0;
    std::uint64_t loopCycles = 0;   ///< cycles attributed to annotated
                                    ///< blocks (drives Fig. 1)
    std::uint64_t robFullStalls = 0;
    std::uint64_t lsqFullStalls = 0;

    /** Every counter, in declaration order: the checkpoint `core`
     *  array layout, the warm-up subtraction and the multi-core sum
     *  all walk this table. */
    static constexpr std::uint64_t CoreStats::*Counters[] = {
        &CoreStats::cycles,
        &CoreStats::instructions,
        &CoreStats::memInstructions,
        &CoreStats::branches,
        &CoreStats::branchMispredicts,
        &CoreStats::loopCycles,
        &CoreStats::robFullStalls,
        &CoreStats::lsqFullStalls,
    };

    double ipc() const
    {
        return cycles ? static_cast<double>(instructions) /
                        static_cast<double>(cycles)
                      : 0.0;
    }

    double loopFraction() const
    {
        return cycles ? static_cast<double>(loopCycles) /
                        static_cast<double>(cycles)
                      : 0.0;
    }

    bool operator==(const CoreStats &) const = default;
};

static_assert(sizeof(CoreStats) ==
                  std::size(CoreStats::Counters) * sizeof(std::uint64_t),
              "a CoreStats counter is missing from CoreStats::Counters");

/**
 * The out-of-order core.
 */
class OooCore
{
  public:
    /**
     * Observer invoked for every committed instruction, in program
     * order. Memory records carry the execute-time access outcome
     * (for L1-hit/miss-filtered prefetcher training). The cycle of
     * the commit is passed for observers that time events.
     */
    using CommitHook = std::function<void(
        const TraceRecord &, const AccessOutcome &, Cycle)>;

    /**
     * Observer invoked when a memory operation accesses the cache:
     * loads at execute (possibly out of program order), stores at
     * commit. Forwarded loads never reach the cache and are not
     * reported. This is where cache-attached prefetchers train.
     */
    using AccessHook = CommitHook;

    /**
     * @param core_id index of this core in a multi-core system; every
     *        memory access is tagged with it (private L1 selection and
     *        interference attribution in the shared hierarchy). 0 for
     *        the historic single-core system.
     */
    OooCore(const CoreParams &params, Hierarchy &mem,
            unsigned core_id = 0);

    /**
     * Simulate @p trace until @p max_insts instructions commit or the
     * trace is exhausted.
     *
     * @param warmup_insts statistics are discarded for the first this
     *        many committed instructions (cache/predictor state is
     *        kept warm); @p on_warmup fires once at the boundary, with
     *        the boundary cycle, so the caller can reset external
     *        stats (e.g., the hierarchy's).
     */
    CoreStats run(const Trace &trace, std::uint64_t max_insts,
                  const CommitHook &on_commit = nullptr,
                  const AccessHook &on_access = nullptr,
                  std::uint64_t warmup_insts = 0,
                  const std::function<void(Cycle)> &on_warmup =
                      nullptr);

    /** Bit for @p cls in a commit-hook class mask. */
    static constexpr std::uint32_t
    classBit(InstClass cls)
    {
        return 1u << static_cast<unsigned>(cls);
    }

    /**
     * Restrict the commit hook to instruction classes whose classBit()
     * is set in @p mask (default: all classes). Callers whose hook
     * ignores plain ALU/branch retires — i.e. the common
     * prefetcher-training hook — set a Load/Store/marker mask so the
     * bulk of the commit stream skips the std::function dispatch
     * entirely. Purely a speed knob: the hook's *behaviour* for masked
     * classes must already be a no-op.
     */
    void setCommitHookMask(std::uint32_t mask) { commitHookMask_ = mask; }

    /**
     * @name Steppable per-cycle API
     * runCores() calls begin() once per core, then step() every
     * cycle until done(), then finish(). The loop owns the global
     * clock and the hierarchy tick; step() performs one cycle's worth
     * of commit/issue/dispatch/fetch for this core only.
     */
    ///@{

    /** Arm the pipeline for a run (resets all per-run state). */
    void begin(const Trace &trace, std::uint64_t max_insts,
               const CommitHook &on_commit = nullptr,
               const AccessHook &on_access = nullptr,
               std::uint64_t warmup_insts = 0,
               const std::function<void(Cycle)> &on_warmup = nullptr);

    /**
     * Advance this core's pipeline through global cycle @p now. The
     * caller must have ticked the shared hierarchy to @p now first.
     * @return true when any stage made progress this cycle (used by
     *         the driver's idle fast-forward).
     */
    bool step(Cycle now);

    /** True once the run's end condition was reached by step(). */
    bool done() const { return done_; }

    /**
     * Earliest core-local future event (an issued instruction
     * completing or the post-mispredict fetch restart); a huge
     * sentinel when none is pending. Combined with the hierarchy's
     * nextEventCycle() to bound idle fast-forwards. May
     * conservatively report an already-dead event (the driver then
     * finds nothing to do there and asks again); it never skips over
     * a live one.
     */
    Cycle nextLocalEvent(Cycle now) const;

    /**
     * Account @p skipped idle cycles jumped over by the driver's
     * fast-forward: extends the annotated-block cycle attribution of
     * the last stepped cycle, and replays the per-cycle stall
     * counters (robFullStalls/lsqFullStalls) the skipped repeats of
     * that frozen cycle would have accumulated — a skip-eligible
     * cycle changes no pipeline state, so every skipped cycle
     * increments exactly what the last stepped cycle incremented.
     */
    void addSkippedCycles(Cycle skipped);

    /** Close the run at cycle @p end and return the (warmup-adjusted)
     *  statistics. */
    CoreStats finish(Cycle end);

    /** Instructions committed so far in the current run. */
    std::uint64_t committedInsts() const { return stats_.instructions; }

    /** Livelock guard for the current run's cycle count. */
    Cycle cycleLimit() const { return cycleLimit_; }

    unsigned coreId() const { return coreId_; }

    ///@}

    const TournamentBP &branchPredictor() const { return bp_; }

    /** Attach a timeline-event sink (nullptr detaches). */
    void setTraceSink(TraceSink *sink) { trace_ = sink; }

  private:
    /**
     * One in-flight instruction. Identified by its trace index (==
     * sequence number); the record itself is read from the trace's
     * contiguous record array on demand.
     */
    struct RobEntry
    {
        AccessOutcome mem;
        std::uint32_t idx = 0; ///< trace index == sequence number
        bool mispredicted = false;
        bool inBlock = false; ///< fetched inside an annotated block
    };

    /** Fetched-but-not-dispatched instruction (ring fetch queue). */
    struct FetchEntry
    {
        std::uint32_t idx = 0;
        bool mispredicted = false;
        bool inBlock = false;
    };

    /** One in-flight store in the store queue. */
    struct StoreEntry
    {
        LineAddr line = 0;
        std::uint32_t slot = 0; ///< physical ROB slot
    };

    static constexpr Cycle Never = ~Cycle(0);
    static constexpr std::uint32_t NoProducer = ~std::uint32_t(0);
    static constexpr std::uint32_t NoLink = ~std::uint32_t(0);

    /** Physical ROB slot of the entry at logical @p offset from the
     *  head. Valid for offset <= robSize (single conditional wrap,
     *  no division). */
    std::size_t
    physIndex(std::size_t offset) const
    {
        std::size_t p = robHead_ + offset;
        if (p >= params_.robSize)
            p -= params_.robSize;
        return p;
    }

    /** Logical offset from the head of physical ROB slot @p p. */
    std::size_t
    robOffset(std::size_t p) const
    {
        return p >= robHead_ ? p - robHead_
                             : p + params_.robSize - robHead_;
    }

    void pushEvent(Cycle at);

    /**
     * @name Ready bitmask
     * One bit per physical ROB slot, set once every producer of a
     * dispatched, unissued entry has issued (its pending count hit
     * 0) and cleared at issue. The issue stage walks set bits
     * instead of every unissued entry.
     */
    ///@{
    void setReady(std::size_t p)
    {
        ready_[p >> 6] |= std::uint64_t(1) << (p & 63);
    }
    void clearReady(std::size_t p)
    {
        ready_[p >> 6] &= ~(std::uint64_t(1) << (p & 63));
    }
    /** Write the physical indices of set bits in [begin, begin+len)
     *  (no wrap) to scanBuf_ starting at @p n; returns the new
     *  count. */
    std::size_t appendReady(std::size_t begin, std::size_t len,
                            std::size_t n);
    ///@}

    /**
     * Store-to-load forwarding lookup for the load in ROB slot @p p
     * on line @p line: the youngest store older than the load to the
     * same line decides. Returns 0 when no such store is in flight,
     * Never when it has not issued yet (the load waits), and
     * otherwise the forwarded data's ready cycle.
     */
    Cycle forwardFrom(std::size_t p, LineAddr line, Cycle now) const;

    /** Store-filter bucket of @p line: its low 8 bits. */
    static constexpr std::size_t StoreFilterBuckets = 256;
    static std::size_t
    storeBucket(LineAddr line)
    {
        return line & (StoreFilterBuckets - 1);
    }

    /** Record that ROB slot @p p issued with completion @p ready:
     *  wake its consumers and schedule the completion. */
    void completeIssue(std::size_t p, Cycle ready, Cycle now);

    unsigned commitStage(Cycle now);
    unsigned issueStage(Cycle now);
    unsigned dispatchStage(Cycle now);
    unsigned fetchStage(Cycle now);

    CoreParams params_;
    Hierarchy &mem_;
    TournamentBP bp_;
    TraceSink *trace_ = nullptr;
    unsigned coreId_ = 0;
    /** Counter-track labels ("core.commit" on core 0, "coreN.commit"
     *  otherwise, so single-core traces are unchanged). */
    std::string commitLabel_;
    std::string robLabel_;

    // ---- Per-run pipeline state (valid between begin/finish) ----
    /** Contiguous record array of the running trace. */
    const TraceRecord *records_ = nullptr;
    std::size_t traceSize_ = 0;
    std::uint64_t maxInsts_ = 0;
    std::uint64_t warmupInsts_ = 0;
    CommitHook onCommit_;
    AccessHook onAccess_;
    std::uint32_t commitHookMask_ = ~std::uint32_t(0);
    std::function<void(Cycle)> onWarmup_;
    CoreStats stats_;
    CoreStats warmSnapshot_;
    bool warmed_ = true;
    bool done_ = false;
    /** ROB as a ring buffer so entry offsets stay stable across
     *  pops. */
    std::vector<RobEntry> rob_;
    std::size_t robHead_ = 0;
    std::size_t robCount_ = 0;
    /**
     * Per-slot scheduling state, split out of RobEntry so the issue
     * stage touches dense arrays instead of scattered structs.
     *  - readyAt_: completion cycle once issued; Never from dispatch
     *    until issue (markers complete at dispatch).
     *  - issueBound_: max readyAt over the slot's issued producers;
     *    the slot cannot issue before it.
     *  - pending_: producers that had not issued when the slot
     *    dispatched and still have not.
     *  - wakeHead_: first link of the slot's wake list, the consumers
     *    waiting for it to issue. Link 2*c+k is source k of consumer
     *    slot c; wakeNext_ chains the links.
     *  - blockedUntil_: a load that failed on a full L1D MSHR file
     *    fails identically on every retry before this cycle
     *    (Hierarchy::l1dBlockedUntil); 0 = no memo.
     */
    std::vector<Cycle> readyAt_;
    std::vector<Cycle> issueBound_;
    std::vector<std::uint8_t> pending_;
    std::vector<std::uint32_t> wakeHead_;
    std::vector<std::uint32_t> wakeNext_;
    std::vector<Cycle> blockedUntil_;
    /** One bit per slot: dispatched, all producers issued, not yet
     *  issued itself. */
    std::vector<std::uint64_t> ready_;
    /** Scratch list of candidate slots for the current issue stage. */
    std::vector<std::uint32_t> scanBuf_;
    /** In-flight stores in program order, as a fixed ring (stqSize
     *  entries): pushed at dispatch, popped at commit. */
    std::vector<StoreEntry> storeQueue_;
    std::size_t sqHead_ = 0;
    /**
     * In-flight stores per storeBucket(), kept with the store queue.
     * A load whose bucket is 0 has no older store on its line, so
     * forwardFrom() answers without a scan.
     */
    std::array<std::uint32_t, StoreFilterBuckets> storeLines_{};
    /** Fetch queue as a fixed ring (fetchQueueSize entries). */
    std::vector<FetchEntry> fetchQueue_;
    std::size_t fqHead_ = 0;
    std::size_t fqCount_ = 0;
    std::uint64_t headSeq_ = 0; ///< sequence number of the ROB head
    std::size_t traceIdx_ = 0;
    Cycle fetchAllowedAt_ = 0;
    LineAddr lastFetchLine_ = ~LineAddr(0);
    /** Fetch is between a BLOCK_BEGIN and its BLOCK_END. */
    bool fetchInBlock_ = false;
    /** Per architectural register, the trace index (== sequence
     *  number) of the latest dispatched writer, or NoProducer. */
    std::array<std::uint32_t, NumArchRegs> lastWriter_{};
    unsigned ldqCount_ = 0;
    unsigned stqCount_ = 0; ///< also the store queue's occupancy
    bool lastCommittedInBlock_ = false;
    /** First offset in the ROB that may hold an unissued entry; issue
     *  never needs to look before it. */
    std::size_t firstUnissued_ = 0;
    /**
     * Min-heap of known future wake-up cycles (issued completions,
     * fetch restarts). Completions due in <= 1 cycle are not pushed:
     * they are only ever queried from a strictly later cycle, by
     * which point they are already in the past. Entries are popped
     * lazily, so the heap may hold cycles where nothing happens —
     * nextLocalEvent() is conservative, never late. Mutable: lazy
     * cleanup happens inside the const query.
     */
    mutable std::vector<Cycle> events_;
    /** Whether the last stepped cycle was attributed to an annotated
     *  block (extends to skipped idle cycles). */
    bool lastCycleInBlock_ = false;
    /** Stall-counter increments of the last stepped cycle, replayed
     *  by addSkippedCycles() for each skipped idle repeat. */
    std::uint64_t cycleRobFullStalls_ = 0;
    std::uint64_t cycleLsqFullStalls_ = 0;
    Cycle cycleLimit_ = 0;
};

/**
 * The out-of-order cycle loop, for one core or several sharing @p mem.
 *
 * Every core must be armed with begin(). Each cycle ticks the
 * hierarchy, then steps the unfinished cores in index order, so
 * shared-L2 bank arbitration and prefetch-queue interleaving are
 * deterministic. Idle cycles fast-forward (CBWS_SKIP_AHEAD) only when
 * no core made progress and no prefetch work is pending. The loop
 * ends when every core is done, or at the first core's cycle limit.
 *
 * @param on_done called once per core, with the cycle it finished.
 * @return each core's finish() statistics, in core order.
 */
std::vector<CoreStats>
runCores(const std::vector<OooCore *> &cores, Hierarchy &mem,
         const std::function<void(unsigned, Cycle)> &on_done = nullptr);

} // namespace cbws

#endif // CBWS_CPU_CORE_HH
