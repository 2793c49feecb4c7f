/**
 * @file
 * Unit tests for the two-level hierarchy: latency composition, MSHR
 * merge and back-pressure, the prefetch-into-L2 path and the Fig. 13
 * demand-access classification.
 */

#include <gtest/gtest.h>

#include "mem/hierarchy.hh"

namespace cbws
{
namespace
{

HierarchyParams
defaultParams()
{
    return HierarchyParams();
}

TEST(Hierarchy, LatencyComposition)
{
    Hierarchy mem(defaultParams());
    const auto &p = mem.params();

    // Cold miss: L1 + L2 + DRAM + L1 fill.
    auto out = mem.load(0x10000, 0);
    ASSERT_TRUE(out.ok);
    EXPECT_FALSE(out.l1Hit);
    EXPECT_EQ(out.cls, DemandClass::Missing);
    const Cycle miss_ready = p.l1d.latency + p.l2.latency +
                             p.dramLatency + p.l1d.latency;
    EXPECT_EQ(out.readyAt, miss_ready);

    // After the fill drains, the same line is an L1 hit.
    const Cycle later = out.readyAt + 1;
    out = mem.load(0x10000, later);
    EXPECT_TRUE(out.l1Hit);
    EXPECT_EQ(out.readyAt, later + p.l1d.latency);
    EXPECT_EQ(out.cls, DemandClass::None);
}

TEST(Hierarchy, L2HitAfterL1Eviction)
{
    HierarchyParams p;
    // One-set, one-way L1 so the second line evicts the first.
    p.l1d.sizeBytes = LineBytes;
    p.l1d.assoc = 1;
    Hierarchy mem(p);

    Cycle t = 0;
    t = mem.load(0, t).readyAt + 1;
    t = mem.load(64 * 1024, t).readyAt + 1; // evicts line 0 from L1
    auto out = mem.load(0, t);
    ASSERT_TRUE(out.ok);
    EXPECT_FALSE(out.l1Hit);
    EXPECT_EQ(out.cls, DemandClass::CachedHit); // still in L2
    EXPECT_EQ(out.readyAt,
              t + p.l1d.latency + p.l2.latency + p.l1d.latency);
}

TEST(Hierarchy, MshrMergeSharesFill)
{
    Hierarchy mem(defaultParams());
    auto first = mem.load(0x20000, 0);
    // Another access to the same line merges into the in-flight fill
    // rather than producing a new L2 access.
    auto merged = mem.load(0x20010, 5);
    ASSERT_TRUE(merged.ok);
    EXPECT_EQ(merged.cls, DemandClass::None);
    EXPECT_LE(merged.readyAt, first.readyAt);
    EXPECT_EQ(mem.stats().llcDemandMisses, 1u);
    EXPECT_EQ(mem.stats().demandL2Accesses, 1u);
}

TEST(Hierarchy, L1MshrBackPressure)
{
    Hierarchy mem(defaultParams());
    const unsigned mshrs = mem.params().l1d.mshrs;
    for (unsigned i = 0; i < mshrs; ++i)
        EXPECT_TRUE(mem.load((i + 1) * 0x10000, 0).ok);
    auto out = mem.load(0x90000, 0);
    EXPECT_FALSE(out.ok);
    EXPECT_EQ(mem.stats().mshrStalls, 1u);
    // The stalled access must not leak into the stats.
    EXPECT_EQ(mem.stats().l1dAccesses, mshrs);
    EXPECT_EQ(mem.stats().llcDemandMisses, mshrs);
}

TEST(Hierarchy, StoresNeverStall)
{
    Hierarchy mem(defaultParams());
    const unsigned mshrs = mem.params().l1d.mshrs;
    for (unsigned i = 0; i < mshrs + 4; ++i) {
        auto out = mem.store((i + 1) * 0x10000, 0);
        EXPECT_TRUE(out.ok);
    }
}

TEST(Hierarchy, PrefetchFillsL2NotL1)
{
    Hierarchy mem(defaultParams());
    const LineAddr line = lineOf(0x40000);
    mem.enqueuePrefetch(line);
    EXPECT_EQ(mem.stats().prefetchesRequested, 1u);

    // Let the prefetch issue and complete.
    mem.tick(1);
    EXPECT_EQ(mem.stats().prefetchesIssued, 1u);
    const Cycle done = 1 + mem.params().l2.latency +
                       mem.params().dramLatency + 1;
    mem.tick(done);
    EXPECT_TRUE(mem.isCachedOrInFlightL2(line));
    EXPECT_FALSE(mem.isCachedL1D(line));

    // A demand access now classifies as a timely prefetch.
    auto out = mem.load(0x40000, done);
    EXPECT_EQ(out.cls, DemandClass::Timely);
}

TEST(Hierarchy, ShorterWaitingTimeClassification)
{
    Hierarchy mem(defaultParams());
    const LineAddr line = lineOf(0x50000);
    mem.enqueuePrefetch(line);
    mem.tick(1); // issue
    // Demand arrives while the prefetch is still in flight.
    auto out = mem.load(0x50000, 10);
    EXPECT_EQ(out.cls, DemandClass::Shorter);
    // The merged demand completes when the prefetch does: strictly
    // earlier than a fresh miss issued at cycle 10 would.
    const auto &p = mem.params();
    EXPECT_LT(out.readyAt, 10 + p.l1d.latency + p.l2.latency +
                               p.dramLatency + p.l1d.latency);
}

TEST(Hierarchy, NonTimelyClassification)
{
    HierarchyParams p;
    p.prefetchIssuePerCycle = 1;
    Hierarchy mem(p);
    // Two queued prefetches, one issue slot per cycle: the second
    // request is identified but not yet issued when demand arrives.
    mem.enqueuePrefetch(lineOf(0x68000));
    mem.enqueuePrefetch(lineOf(0x60000));
    auto out = mem.load(0x60000, 0);
    EXPECT_EQ(out.cls, DemandClass::NonTimely);
    // The demand takes over; the queue entry is consumed.
    EXPECT_EQ(mem.stats().classCount(DemandClass::NonTimely), 1u);
}

TEST(Hierarchy, WrongPrefetchCountedOnFinalize)
{
    Hierarchy mem(defaultParams());
    mem.enqueuePrefetch(lineOf(0x70000));
    mem.tick(1);
    mem.tick(2000); // fill completes, line sits unused
    mem.finalize();
    EXPECT_EQ(mem.stats().wrongPrefetches, 1u);
}

TEST(Hierarchy, PrefetchFilteredWhenCached)
{
    Hierarchy mem(defaultParams());
    Cycle t = mem.load(0x80000, 0).readyAt + 1;
    mem.tick(t);
    mem.enqueuePrefetch(lineOf(0x80000));
    EXPECT_EQ(mem.stats().prefetchesFiltered, 1u);
    EXPECT_EQ(mem.stats().prefetchesIssued, 0u);
}

TEST(Hierarchy, PrefetchQueueOverflowDropsOldest)
{
    HierarchyParams p;
    p.prefetchQueueEntries = 2;
    Hierarchy mem(p);
    mem.enqueuePrefetch(1);
    mem.enqueuePrefetch(2);
    mem.enqueuePrefetch(3); // drops line 1
    EXPECT_EQ(mem.stats().prefetchesDropped, 1u);
}

TEST(Hierarchy, PrefetchMshrReserveLeavesRoomForDemand)
{
    HierarchyParams p;
    p.l2.mshrs = 6;
    p.prefetchMshrReserve = 4;
    p.prefetchIssuePerCycle = 8;
    Hierarchy mem(p);
    for (LineAddr l = 100; l < 120; ++l)
        mem.enqueuePrefetch(l);
    mem.tick(1);
    // Only (mshrs - reserve) prefetches may be outstanding.
    EXPECT_EQ(mem.stats().prefetchesIssued, 2u);
    // Demand can still allocate.
    EXPECT_TRUE(mem.load(0xA0000, 2).ok);
}

TEST(Hierarchy, InclusiveBackInvalidation)
{
    HierarchyParams p;
    // L2 with a single set of 2 ways; L1 large enough to keep lines.
    p.l2.sizeBytes = 2 * LineBytes;
    p.l2.assoc = 2;
    p.l2.mshrs = 8;
    Hierarchy mem(p);

    Cycle t = 0;
    t = mem.load(0 * 64, t).readyAt + 1;
    mem.tick(t);
    t = mem.load(1 * 64, t).readyAt + 1;
    mem.tick(t);
    EXPECT_TRUE(mem.isCachedL1D(0));
    // Third line evicts one of the first two from L2, which must also
    // leave the L1 (inclusion).
    t = mem.load(2 * 64, t).readyAt + 1;
    mem.tick(t);
    EXPECT_FALSE(mem.isCachedL1D(0) && mem.isCachedL1D(1));
}

TEST(Hierarchy, InstructionFetchPath)
{
    Hierarchy mem(defaultParams());
    auto out = mem.fetch(0x400000, 0);
    ASSERT_TRUE(out.ok);
    EXPECT_FALSE(out.l1Hit);
    // I-side misses must not pollute the data-side classification.
    EXPECT_EQ(mem.stats().demandL2Accesses, 0u);
    EXPECT_EQ(mem.stats().l1iMisses, 1u);
    const Cycle later = out.readyAt + 1;
    EXPECT_TRUE(mem.fetch(0x400000, later).l1Hit);
}

TEST(Hierarchy, DramTrafficAccounting)
{
    Hierarchy mem(defaultParams());
    mem.load(0x10000, 0);
    EXPECT_EQ(mem.stats().dramBytesRead, LineBytes);
    mem.enqueuePrefetch(lineOf(0x20000));
    mem.tick(1);
    EXPECT_EQ(mem.stats().dramBytesRead, 2 * LineBytes);
}

TEST(Hierarchy, ResetStatsKeepsContents)
{
    Hierarchy mem(defaultParams());
    Cycle t = mem.load(0x10000, 0).readyAt + 1;
    mem.tick(t);
    mem.resetStats();
    EXPECT_EQ(mem.stats().l1dAccesses, 0u);
    // The line is still cached.
    EXPECT_TRUE(mem.load(0x10000, t).l1Hit);
}

TEST(Hierarchy, PrefetchToL1Ablation)
{
    HierarchyParams p;
    p.prefetchToL1 = true;
    Hierarchy mem(p);
    const LineAddr line = lineOf(0xB0000);
    mem.enqueuePrefetch(line);
    mem.tick(1);
    mem.tick(2000);
    EXPECT_TRUE(mem.isCachedL1D(line));
    // A demand access now hits in the L1 directly.
    auto out = mem.load(0xB0000, 2000);
    EXPECT_TRUE(out.l1Hit);
}

TEST(Hierarchy, DramThrottleOffByDefault)
{
    Hierarchy mem(HierarchyParams{});
    auto a = mem.load(0x10000, 0);
    auto b = mem.load(0x20000, 0);
    EXPECT_EQ(a.readyAt, b.readyAt); // latency-only model
}

TEST(Hierarchy, NextEventCycleTracksFills)
{
    Hierarchy mem(defaultParams());
    EXPECT_GT(mem.nextEventCycle(), 1ull << 60); // idle sentinel
    auto out = mem.load(0x10000, 0);
    EXPECT_LE(mem.nextEventCycle(), out.readyAt);
}

/**
 * The property behind the core's MSHR-full retry memo. Once a load
 * fails on a full L1D MSHR file, every retry of its line before
 * l1dBlockedUntil() fails as well. With no prefetch queued it adds
 * exactly one mshrStalls and changes no other statistic. With
 * prefetches queued, the retry's tick() issues more of them, and
 * repeatBlockedLoad() has to leave an identical hierarchy in the same
 * state.
 */
void
runBlockedLoadProperty(const char *dram, bool queue_prefetches)
{
    SCOPED_TRACE(::testing::Message()
                 << dram << (queue_prefetches ? " with" : " without")
                 << " queued prefetches");
    HierarchyParams p;
    p.dramBackend = dram;
    p.prefetchIssuePerCycle = 1;
    Hierarchy retried(p);
    Hierarchy replayed(p);
    const Addr blocked = 0x900000;
    for (Hierarchy *m : {&retried, &replayed}) {
        for (unsigned i = 0; i < p.l1d.mshrs; ++i)
            ASSERT_TRUE(m->load((i + 1) * 0x10000, 0).ok);
        if (queue_prefetches) {
            for (LineAddr l = 0; l < 24; ++l)
                m->enqueuePrefetch(lineOf(0x800000) + l);
        }
        ASSERT_FALSE(m->load(blocked, 0).ok) << "MSHRs not saturated";
    }
    const Cycle until = retried.l1dBlockedUntil(0);
    ASSERT_GT(until, Cycle(1));
    ASSERT_EQ(until, replayed.l1dBlockedUntil(0));

    for (Cycle c = 1; c < until; ++c) {
        retried.tick(c);
        replayed.tick(c);
        HierarchyStats expect = retried.stats();
        ++expect.mshrStalls;
        ASSERT_FALSE(retried.load(blocked, c).ok) << "cycle " << c;
        replayed.repeatBlockedLoad(c);
        if (!queue_prefetches) {
            ASSERT_EQ(retried.stats(), expect) << "cycle " << c;
        }
        ASSERT_EQ(retried.stats(), replayed.stats()) << "cycle " << c;
    }
    if (queue_prefetches) {
        EXPECT_GT(retried.stats().prefetchesIssued, 0u)
            << "the retries' ticks never issued a prefetch";
    }
}

TEST(Hierarchy, BlockedLoadRetriesOnlyCountStallsFixedDram)
{
    runBlockedLoadProperty("fixed", false);
    runBlockedLoadProperty("fixed", true);
}

TEST(Hierarchy, BlockedLoadRetriesOnlyCountStallsDdrDram)
{
    runBlockedLoadProperty("ddr", false);
    runBlockedLoadProperty("ddr", true);
}

TEST(Hierarchy, L1dBlockedUntilIsZeroUnlessTheL1dFileIsFull)
{
    // Under prefetchToL1, L2 prefetch fills insert into the L1D at any
    // cycle, so no retry can be proven to fail.
    HierarchyParams to_l1;
    to_l1.prefetchToL1 = true;
    Hierarchy mem(to_l1);
    for (unsigned i = 0; i < to_l1.l1d.mshrs; ++i)
        ASSERT_TRUE(mem.load((i + 1) * 0x10000, 0).ok);
    ASSERT_FALSE(mem.load(0x900000, 0).ok);
    EXPECT_EQ(mem.l1dBlockedUntil(0), 0u);

    // A load stalled by the L2 MSHR file leaves L1D MSHRs free.
    HierarchyParams small_l2;
    small_l2.l2.mshrs = 2;
    small_l2.l1d.mshrs = 8;
    Hierarchy l2_bound(small_l2);
    for (unsigned i = 0; i < small_l2.l2.mshrs; ++i)
        ASSERT_TRUE(l2_bound.load((i + 1) * 0x10000, 0).ok);
    ASSERT_FALSE(l2_bound.load(0x900000, 0).ok);
    EXPECT_EQ(l2_bound.l1dBlockedUntil(0), 0u);
}

} // anonymous namespace
} // namespace cbws
