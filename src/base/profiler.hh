/**
 * @file
 * Host-side self-profiler: where does the *simulator's* wall time go?
 *
 * The rest of the observability stack (statistics, the Chrome trace)
 * looks at the simulated machine; this looks at the simulating
 * process. Components bracket their work with PROF_SCOPE
 * phase markers; the profiler attributes host time between markers to
 * the innermost active phase ("switch-point" accounting), so the
 * per-phase exclusive times of a thread partition its wall time
 * exactly — whatever no scope claims lands in Phase::Other.
 *
 * Cost model:
 *  - Disabled (the default): one predictable branch on a plain bool
 *    per scope — no clock is read, nothing is written. Verified to
 *    stay under a few ns/scope by tests/test_profiler.cc.
 *  - Enabled: one TSC read per phase transition (two per scope) plus
 *    a handful of thread-local adds; calibrated against
 *    steady_clock over the whole profiled window at report time.
 *    Sites hot enough that the TSC reads would rival the bracketed
 *    work use PROF_SCOPE_SAMPLED (1-in-N timed, inline-extrapolated,
 *    zero-sum against the enclosing phase).
 *
 * Thread model: every thread accumulates into its own heap-allocated
 * slab (registered once, never freed, so slabs of joined pool workers
 * survive until report()). enable() is sticky for the process;
 * report() aggregates all slabs. resetForTest() exists for unit tests
 * only.
 */

#ifndef CBWS_BASE_PROFILER_HH
#define CBWS_BASE_PROFILER_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "base/stats.hh"

namespace cbws
{

class JsonWriter;

namespace prof
{

/** Host-time phases the simulator attributes its wall clock to. */
enum class Phase : unsigned
{
    Other = 0,      ///< unattributed (driver loops, setup, teardown)
    TraceSynthesis, ///< workload kernels emitting trace records
    Decode,         ///< core cycle loop outside the OoO stages
    CacheLookup,    ///< L1-miss/L2 demand processing (hits: caller)
    PfObserve,      ///< prefetcher training (observe/blockBegin/End)
    PfIssue,        ///< prefetch-queue drain into the memory system
    Dram,           ///< MSHR/DRAM fill-drain processing
    CheckpointIO,   ///< checkpoint open/append (seal, write, flush)
    TraceCacheIO,   ///< on-disk trace-cache load/store
    Fetch,          ///< OoO fetch stage (branch predict, L1I)
    Dispatch,       ///< OoO dispatch: rename, wake-list linking
    Issue,          ///< OoO issue-select, forwarding, load execute
    Commit,         ///< OoO in-order commit, stores, commit hooks
    NumPhases
};

constexpr unsigned NumPhases =
    static_cast<unsigned>(Phase::NumPhases);

/** Stable snake_case identifier (JSON keys, table rows). */
const char *toString(Phase phase);

/** One-line human description of what a phase covers. */
const char *describe(Phase phase);

class StageSampler;

namespace detail
{

extern bool enabledFlag;

/** This thread's accumulator slab (created on first use). */
struct ThreadSlab
{
    std::array<std::uint64_t, NumPhases> ticks{}; ///< exclusive TSC
    std::array<std::uint64_t, NumPhases> entries{};
    /**
     * Zero-sum extrapolation corrections from SampledScope: a timed
     * sample adds delta*(weight-1) to its phase and subtracts the
     * same from the enclosing phase, so per-thread phase totals keep
     * partitioning wall time exactly. Signed (and applied at report
     * time) because the subtraction can transiently exceed what the
     * parent has accrued so far.
     */
    std::array<std::int64_t, NumPhases> adjust{};
    /** Per-phase invocation counters driving SampledScope's 1-in-N. */
    std::array<std::uint32_t, NumPhases> sampleCtr{};
    Phase current = Phase::Other;
    std::uint64_t lastTsc = 0;
    /** Enclosing phases of the active scope chain. */
    std::array<Phase, 64> stack;
    unsigned depth = 0;
    bool worker = false; ///< slab belongs to a pool worker thread
    /** Innermost live StageSampler of this thread. */
    StageSampler *stageSampler = nullptr;
    /** That sampler is timing the current iteration. */
    bool stageTimed = false;
};

/** Cached pointer to this thread's slab (set by slabSlow()). */
extern thread_local ThreadSlab *tlsSlab;

/** Cold path: allocate + register this thread's slab once. */
ThreadSlab &slabSlow();

inline ThreadSlab &
slab()
{
    ThreadSlab *s = tlsSlab;
    return s ? *s : slabSlow();
}

/**
 * Cheapest monotonic-enough counter available. The absolute rate is
 * irrelevant: report() calibrates ticks against steady_clock over
 * the whole profiled window.
 */
inline std::uint64_t
readTsc()
{
#if defined(__x86_64__) || defined(__i386__)
    return __rdtsc();
#else
    // Portable fallback: nanoseconds (calibration then yields ~1e9).
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
#endif
}

/* enter/exit are inline: they run on simulator hot paths (per
 * demand access, per commit) where an out-of-line call plus a fresh
 * TLS lookup each time would dominate the rdtsc itself. */

inline void
enterPhase(Phase phase)
{
    ThreadSlab &s = slab();
    const std::uint64_t now = readTsc();
    if (s.lastTsc != 0)
        s.ticks[static_cast<unsigned>(s.current)] += now - s.lastTsc;
    s.lastTsc = now;
    if (s.depth < s.stack.size())
        s.stack[s.depth] = s.current;
    ++s.depth;
    s.current = phase;
    ++s.entries[static_cast<unsigned>(phase)];
}

inline void
exitPhase()
{
    ThreadSlab &s = slab();
    const std::uint64_t now = readTsc();
    if (s.lastTsc != 0)
        s.ticks[static_cast<unsigned>(s.current)] += now - s.lastTsc;
    s.lastTsc = now;
    if (s.depth > 0) {
        --s.depth;
        s.current = s.depth < s.stack.size() ? s.stack[s.depth]
                                             : Phase::Other;
    } else {
        s.current = Phase::Other;
    }
}

} // namespace detail

/** Is profiling live? (checked on every scope; keep it branchy-cheap) */
inline bool
enabled()
{
    return detail::enabledFlag;
}

/**
 * Turn profiling on for the rest of the process (idempotent). Records
 * the calibration epoch; call before the work you want attributed.
 */
void enable();

/**
 * Test-only: disable profiling and drop every slab's contents. Not
 * thread-safe — call only with no worker threads running.
 */
void resetForTest();

/**
 * RAII phase marker. Disabled cost: one branch. Scopes nest; time
 * spent in an inner scope is *not* charged to the outer phase.
 */
class ScopedPhase
{
  public:
    explicit ScopedPhase(Phase phase)
    {
        if (enabled()) {
            active_ = true;
            detail::enterPhase(phase);
        }
    }

    ~ScopedPhase()
    {
        if (active_)
            detail::exitPhase();
    }

    ScopedPhase(const ScopedPhase &) = delete;
    ScopedPhase &operator=(const ScopedPhase &) = delete;

  private:
    bool active_ = false;
};

/**
 * Sampled RAII phase marker for very hot sites (hundreds of
 * thousands of scopes per second) where two TSC reads per scope would
 * cost more than the work they bracket — on this class of machine a
 * timed scope is ~35 ns while e.g. one prefetcher observe() is ~60 ns.
 *
 * Every invocation counts an entry, but only one in (mask+1) is
 * timed. The measured exclusive time is extrapolated inline: the
 * phase gains delta*mask extra ticks and the *enclosing* phase loses
 * the same amount (it absorbed the untimed siblings), so per-thread
 * phase totals still partition wall time exactly. Attribution is
 * statistical — use only where invocations do similar work, e.g.
 * per-access prefetcher training.
 *
 * Inside an iteration a StageSampler times, an invocation the counter
 * skips is still timed, so the stage's ticks hold only its own time;
 * at exit its time moves back to the enclosing phase through adjust,
 * leaving every phase total as if it had not been timed.
 */
class SampledScope
{
  public:
    SampledScope(Phase phase, std::uint32_t mask)
    {
        if (enabled()) {
            detail::ThreadSlab &s = detail::slab();
            const unsigned p = static_cast<unsigned>(phase);
            if ((++s.sampleCtr[p] & mask) == 0) {
                scale_ = mask;
            } else if (s.stageTimed) {
                scale_ = -1;
            } else {
                ++s.entries[p];
                return;
            }
            active_ = true;
            phase_ = p;
            parent_ = static_cast<unsigned>(s.current);
            ticks0_ = s.ticks[p];
            detail::enterPhase(phase);
        }
    }

    ~SampledScope()
    {
        if (active_) {
            detail::exitPhase();
            detail::ThreadSlab &s = detail::slab();
            const std::int64_t extra =
                static_cast<std::int64_t>(s.ticks[phase_] - ticks0_) *
                scale_;
            s.adjust[phase_] += extra;
            s.adjust[parent_] -= extra;
        }
    }

    SampledScope(const SampledScope &) = delete;
    SampledScope &operator=(const SampledScope &) = delete;

  private:
    std::uint64_t ticks0_ = 0;
    /** Extra multiples of the measured time the phase gains from its
     *  parent: mask when sampled, -1 to undo a stage-timed one. */
    std::int64_t scale_ = 0;
    bool active_ = false;
    unsigned phase_ = 0;
    unsigned parent_ = 0;
};

/**
 * Stage attribution for a hot loop whose iterations split into
 * consecutive stages that each cost about what timing them does (the
 * OoO cycle loop: per core, commit/issue/dispatch/fetch of tens of ns
 * each).
 *
 * One iteration in @p period is timed: every stage switch inside it
 * (enter()) reads the TSC, switch-point style, so the iteration's
 * intervals are charged to the loop phase or to a stage. Untimed
 * iterations read no clock: their time stays in the loop phase. When
 * the sampler ends, the exact time the loop and its stages were
 * charged in total is split in the proportions the timed iterations
 * measured, after taking out of every interval the timing overhead a
 * probe measured in place (two back-to-back switch points at the
 * start of each timed iteration; the fastest probe counts).
 * Per-thread phase totals therefore still partition wall time, and a
 * stage can never be charged more than the loop spent. The
 * proportions come from the stages' own ticks: every sampled scope
 * nested in a timed iteration is timed (see SampledScope), and the
 * extrapolations of sampled scopes nested in a stage come out of the
 * total being split, not out of the measurement, so a 1-in-N scope
 * whose counter happens to line up with the period cannot skew it.
 * Attribution is statistical and only holds for a loop that runs many
 * iterations.
 */
class StageSampler
{
  public:
    /** Sample the loop running in phase @p loop (the caller's
     *  enclosing scope); a no-op while profiling is off. */
    StageSampler(Phase loop, std::uint32_t period);
    ~StageSampler();

    /** Call at the top of every iteration. */
    void
    beginIteration()
    {
        if (!active_)
            return;
        if (timed_)
            endTimed();
        if (--countdown_ == 0) {
            countdown_ = period_;
            startTimed();
        }
    }

    /** The sampler timing this thread's current iteration, or
     *  nullptr (also when profiling is off). */
    static StageSampler *
    timing()
    {
        if (!enabled())
            return nullptr;
        StageSampler *s = detail::slab().stageSampler;
        return s && s->timed_ ? s : nullptr;
    }

    /** Switch point: end the running interval and charge what
     *  follows to @p phase (a stage, or the loop phase). */
    void
    enter(Phase phase)
    {
        detail::ThreadSlab &s = accrue();
        s.current = phase;
        ++intervals_[static_cast<unsigned>(phase)];
    }

    Phase loopPhase() const { return loop_; }

    StageSampler(const StageSampler &) = delete;
    StageSampler &operator=(const StageSampler &) = delete;

  private:
    /** Charge the time since the last switch point to the running
     *  phase. */
    static detail::ThreadSlab &
    accrue()
    {
        detail::ThreadSlab &s = detail::slab();
        const std::uint64_t now = detail::readTsc();
        if (s.lastTsc != 0)
            s.ticks[static_cast<unsigned>(s.current)] += now - s.lastTsc;
        s.lastTsc = now;
        return s;
    }

    void startTimed();
    void endTimed();

    /** Ticks charged to every phase so far (ticks + adjustments). */
    void chargedNow(std::array<std::int64_t, NumPhases> &out) const;
    /** Ticks measured per phase so far (no adjustments). */
    void ticksNow(std::array<std::int64_t, NumPhases> &out) const;

    Phase loop_;
    std::uint32_t period_;
    bool active_ = false;
    bool timed_ = false;
    /** Iterations until the next timed one. */
    std::uint32_t countdown_;
    StageSampler *outer_ = nullptr;
    /** Charged totals when the sampler began, and measured ticks
     *  when the timed iteration began. */
    std::array<std::int64_t, NumPhases> begin_{};
    std::array<std::int64_t, NumPhases> iterBegin_{};
    /** Summed over timed iterations: ticks measured per phase, and
     *  the intervals each phase was charged. */
    std::array<std::int64_t, NumPhases> sampled_{};
    std::array<std::uint64_t, NumPhases> intervals_{};
    /** Fastest probe: a preempted probe must not count. */
    std::uint64_t probeTicks_ = ~std::uint64_t(0);
};

/**
 * The stage switch points of one loop iteration's body: each call
 * switches the sampler timing this iteration to a stage, and the
 * scope's end switches back to the loop phase. No-ops (one null test)
 * in untimed iterations.
 */
class StageSwitch
{
  public:
    StageSwitch() : sampler_(StageSampler::timing()) {}

    ~StageSwitch()
    {
        if (sampler_)
            sampler_->enter(sampler_->loopPhase());
    }

    void
    operator()(Phase stage)
    {
        if (sampler_)
            sampler_->enter(stage);
    }

    StageSwitch(const StageSwitch &) = delete;
    StageSwitch &operator=(const StageSwitch &) = delete;

  private:
    StageSampler *sampler_;
};

#define CBWS_PROF_CONCAT2(a, b) a##b
#define CBWS_PROF_CONCAT(a, b) CBWS_PROF_CONCAT2(a, b)
/** Attribute the rest of the enclosing block to @p phase. */
#define PROF_SCOPE(phase)                                             \
    ::cbws::prof::ScopedPhase CBWS_PROF_CONCAT(prof_scope_,          \
                                               __LINE__)(phase)
/**
 * Sampled variant for hot sites: counts every entry, times one
 * invocation in (mask+1) and extrapolates. @p mask must be 2^k - 1.
 */
#define PROF_SCOPE_SAMPLED(phase, mask)                               \
    ::cbws::prof::SampledScope CBWS_PROF_CONCAT(prof_scope_,         \
                                                __LINE__)(phase, mask)

/** Per-thread-pool-worker time split (base/threadpool.cc reports). */
struct WorkerTotals
{
    double busySeconds = 0.0;      ///< executing submitted tasks
    double queueWaitSeconds = 0.0; ///< blocked on the work condvar
    double lockWaitSeconds = 0.0;  ///< acquiring the pool mutex
    std::uint64_t jobs = 0;        ///< tasks executed
};

/** Aggregated view of everything profiled so far. */
struct Report
{
    double wallSeconds = 0.0; ///< enable() -> report() wall time
    double cpuSeconds = 0.0;  ///< process CPU time over the window
    /** Exclusive per-phase seconds summed over every thread. */
    std::array<double, NumPhases> phaseSeconds{};
    std::array<std::uint64_t, NumPhases> phaseEntries{};
    /** Sum of phaseSeconds for the *calling* (main) thread only —
     *  equals wallSeconds up to calibration error, which is what the
     *  "phases sum to wall time" acceptance check keys on. */
    double mainThreadSeconds = 0.0;
    /** Exclusive seconds of worker-thread slabs (scopes run inside
     *  pool jobs; busy time is also in workers[].busySeconds). */
    double workerThreadSeconds = 0.0;
    /** Per worker-index totals, aggregated across every pool. */
    std::vector<WorkerTotals> workers;
    std::uint64_t poolsObserved = 0;
    /** Pool job durations, microseconds (64 x 50us buckets). */
    Histogram jobMicros{64, 50.0};
    bool enabled = false;
};

/** Aggregate all slabs + worker stats. Call with workers quiescent. */
Report report();

/** Pool teardown hook: fold one pool's per-worker stats in. */
void addPoolStats(const std::vector<WorkerTotals> &workers,
                  const Histogram &job_micros);

/** Render the phase/worker breakdown as an aligned text table. */
std::string renderTable(const Report &report);

/** Write the "profile" JSON object (no surrounding artifact). */
void writeJson(JsonWriter &w, const Report &report);

/**
 * Write a standalone profile artifact (provenance-stamped) to
 * @p path, e.g. BENCH_profile.json. Returns false on I/O failure.
 */
bool writeJsonFile(const std::string &path, const Report &report);

} // namespace prof
} // namespace cbws

#endif // CBWS_BASE_PROFILER_HH
