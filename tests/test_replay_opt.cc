/**
 * @file
 * Architectural invisibility of the replay-speed optimizations.
 *
 * The idle skip-ahead (base/tuning.hh) is a pure host-time
 * optimization: turning it off must never change a simulated
 * statistic. These tests run the same cells with it on and off —
 * serially, under the parallel runner at several job counts, and on
 * the 4-core lockstep driver — and compare the results bit for bit.
 *
 * The skip-ahead soundness property is tested directly against the
 * hierarchy: nextEventCycle() must never name a cycle beyond the one
 * where a pending MSHR fill (whose timing embeds the DRAM backend,
 * including DDR refresh adjustments) unblocks a stalled requester.
 */

#include <gtest/gtest.h>


#include "base/tuning.hh"
#include "mem/hierarchy.hh"
#include "sim/experiment.hh"
#include "sim/simulator.hh"
#include "workloads/registry.hh"

namespace cbws
{
namespace
{

constexpr Cycle NoEvent = ~Cycle(0);

/** Restore the process-wide toggles however a test exits. */
struct ToggleGuard
{
    Tuning saved = Tuning::get();
    ~ToggleGuard() { Tuning::get() = saved; }
};

void
setSkipAhead(bool skip_ahead)
{
    Tuning::get().skipAhead = skip_ahead;
}

/** Exact equality of every field of two cells. */
::testing::AssertionResult
cellsIdentical(const SimResult &a, const SimResult &b)
{
    if (a == b)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << a.workload << "/" << a.prefetcher << ": cells differ";
}

::testing::AssertionResult
matricesIdentical(const ExperimentMatrix &a, const ExperimentMatrix &b)
{
    if (a.rows.size() != b.rows.size())
        return ::testing::AssertionFailure() << "row counts differ";
    for (std::size_t r = 0; r < a.rows.size(); ++r) {
        if (a.rows[r].byPrefetcher.size() !=
            b.rows[r].byPrefetcher.size())
            return ::testing::AssertionFailure() << "cell counts differ";
        for (std::size_t k = 0; k < a.rows[r].byPrefetcher.size();
             ++k) {
            auto cell = cellsIdentical(a.rows[r].byPrefetcher[k],
                                       b.rows[r].byPrefetcher[k]);
            if (!cell)
                return cell;
        }
    }
    return ::testing::AssertionSuccess();
}

std::vector<WorkloadPtr>
sampleWorkloads()
{
    // One block-structured and one data-dependent kernel keep the
    // matrix cheap while exercising both the loop-heavy and the
    // pointer-chasing replay paths.
    std::vector<WorkloadPtr> ws;
    for (const char *name : {"sgemm-medium", "histo-large"}) {
        auto w = findWorkload(name);
        EXPECT_NE(w, nullptr) << name;
        if (w)
            ws.push_back(std::move(w));
    }
    return ws;
}

ExperimentMatrix
runSmallMatrix(unsigned jobs)
{
    const auto ws = sampleWorkloads();
    MatrixOptions opts;
    opts.jobs = jobs;
    return runMatrix(ws, allSchemeNames(), SystemConfig(), 10000,
                     42, opts);
}

TEST(ReplayOpt, TogglesBitIdenticalAcrossJobCounts)
{
    ToggleGuard guard;
    setSkipAhead(true);
    const ExperimentMatrix ref = runSmallMatrix(1);

    for (const bool skip : {true, false}) {
        setSkipAhead(skip);
        for (const unsigned jobs : {1u, 2u, 8u}) {
            if (skip && jobs == 1)
                continue; // the reference itself
            SCOPED_TRACE(::testing::Message()
                         << "skipAhead=" << skip << " jobs=" << jobs);
            EXPECT_TRUE(matricesIdentical(ref, runSmallMatrix(jobs)));
        }
    }
}

TEST(ReplayOpt, TogglesBitIdenticalOnFourCoreLockstepDriver)
{
    ToggleGuard guard;
    auto wl = findWorkload("sgemm-medium");
    ASSERT_NE(wl, nullptr);
    WorkloadParams params;
    params.maxInstructions = 10000;
    params.seed = 42;
    Trace trace;
    trace.reserve(10512);
    wl->generate(trace, params);

    SystemConfig config;
    config.mem.numCores = 4;
    const std::vector<const Trace *> traces(4, &trace);
    const std::vector<std::string> names(4, "sgemm-medium");

    auto run = [&] {
        return simulateMulti(traces, names, config, 10000, SimProbes(),
                             2500);
    };
    setSkipAhead(true);
    const SimResult ref = run();
    ASSERT_EQ(ref.perCore.size(), 4u);

    setSkipAhead(false);
    EXPECT_TRUE(cellsIdentical(ref, run()));
}

/**
 * Skip-ahead soundness against a pending MSHR fill: with every L1D
 * MSHR occupied at cycle 0, nextEventCycle() names the first cycle at
 * which any fill drains. A stalled load must keep failing on every
 * cycle before it (so fast-forwarding to it skips no state change)
 * and must eventually succeed at or after it (so the skip never
 * overshoots the wake-up).
 */
void
runSkipAheadProperty(const HierarchyParams &params)
{
    Hierarchy mem(params);
    const unsigned mshrs = mem.params().l1d.mshrs;
    for (unsigned i = 0; i < mshrs; ++i)
        ASSERT_TRUE(mem.load((i + 1) * 0x10000, 0).ok);
    ASSERT_FALSE(mem.load(0x900000, 0).ok) << "MSHRs not saturated";

    const Cycle next = mem.nextEventCycle();
    ASSERT_NE(next, NoEvent);
    ASSERT_GT(next, Cycle(0));

    for (Cycle c = 1; c < next; ++c) {
        mem.tick(c);
        ASSERT_FALSE(mem.load(0x900000, c).ok)
            << "state changed at cycle " << c
            << ", before nextEventCycle()=" << next
            << ": skip-ahead would have jumped past it";
    }

    // At nextEventCycle() a fill drains (an L2-level fill may drain
    // first without freeing the L1 MSHR), so the retry succeeds at
    // some cycle >= next, within the full miss latency.
    Cycle success = NoEvent;
    const Cycle bound = next + 2 * mem.params().dramLatency + 1000;
    for (Cycle c = next; c < bound; ++c) {
        mem.tick(c);
        if (mem.load(0x900000, c).ok) {
            success = c;
            break;
        }
    }
    ASSERT_NE(success, NoEvent) << "stalled load never unblocked";
    EXPECT_GE(success, next);
}

TEST(ReplayOpt, SkipAheadNeverJumpsPastPendingFillFixedDram)
{
    runSkipAheadProperty(HierarchyParams());
}

TEST(ReplayOpt, SkipAheadNeverJumpsPastPendingFillDdrDram)
{
    // The DDR backend folds bank/row timing and refresh adjustments
    // into each fill's readyAt; the soundness property must hold on
    // that path too.
    HierarchyParams params;
    params.dramBackend = "ddr";
    runSkipAheadProperty(params);
}

/**
 * The retry fast path must be invisible next to the slow path: a
 * merge into an in-flight fill under a full MSHR file produces the
 * same outcome and counters as the same merge when the file has room.
 */
TEST(ReplayOpt, MshrFullMergeMatchesUncongestedMerge)
{
    Hierarchy congested{HierarchyParams()};
    Hierarchy roomy{HierarchyParams()};
    const unsigned mshrs = congested.params().l1d.mshrs;

    // Fill every MSHR in `congested`; leave one free in `roomy`.
    for (unsigned i = 0; i < mshrs; ++i)
        ASSERT_TRUE(congested.load((i + 1) * 0x10000, 0).ok);
    for (unsigned i = 0; i < mshrs - 1; ++i)
        ASSERT_TRUE(roomy.load((i + 1) * 0x10000, 0).ok);

    // Merge into the first line's in-flight fill on both. The seeding
    // miss counts differ by construction, so compare the merge's own
    // contribution to the counters, not the totals.
    const auto misses_a = congested.stats().l1dMisses;
    const auto misses_b = roomy.stats().l1dMisses;
    const auto a = congested.load(0x10020, 3);
    const auto b = roomy.load(0x10020, 3);
    ASSERT_TRUE(a.ok);
    ASSERT_TRUE(b.ok);
    EXPECT_EQ(a.l1Hit, b.l1Hit);
    EXPECT_EQ(a.readyAt, b.readyAt);
    EXPECT_EQ(congested.stats().l1dMisses - misses_a,
              roomy.stats().l1dMisses - misses_b);
    EXPECT_EQ(congested.stats().mshrStalls, 0u);
}

} // anonymous namespace
} // namespace cbws
