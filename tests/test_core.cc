/**
 * @file
 * Unit tests for the out-of-order core: width limits, dependency
 * scheduling, memory-level parallelism, forwarding, mispredict
 * handling and the commit/access hooks.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cpu/core.hh"
#include "mem/hierarchy.hh"

namespace cbws
{
namespace
{

Trace
independentAlus(std::size_t n)
{
    Trace t;
    for (std::size_t i = 0; i < n; ++i) {
        t.append(TraceRecord::alu(0x400000 + (i % 8) * 4,
                                  static_cast<RegIndex>(8 + i % 16)));
    }
    return t;
}

TEST(Core, WidthLimitsIndependentAlus)
{
    HierarchyParams hp;
    Hierarchy mem(hp);
    CoreParams cp;
    OooCore core(cp, mem);
    auto st = core.run(independentAlus(4000), 4000);
    EXPECT_EQ(st.instructions, 4000u);
    // 4-wide core: IPC approaches 4 minus pipeline fill and the
    // initial I-cache miss.
    EXPECT_GT(st.ipc(), 2.8);
    EXPECT_LE(st.ipc(), 4.0);
}

TEST(Core, DependencyChainSerialises)
{
    Trace t;
    for (int i = 0; i < 8000; ++i)
        t.append(TraceRecord::alu(0x400000, 5, 5));
    HierarchyParams hp;
    Hierarchy mem(hp);
    OooCore core(CoreParams(), mem);
    auto st = core.run(t, 8000);
    // One dependent ALU per cycle (plus the initial I-cache miss).
    EXPECT_NEAR(st.ipc(), 1.0, 0.08);
}

TEST(Core, RegisterReuseDoesNotFalseSerialise)
{
    // Independent loads that all write the same architectural
    // register: renaming must keep them parallel (MLP = L1 MSHRs).
    Trace t;
    const std::size_t n = 256;
    for (std::size_t i = 0; i < n; ++i)
        t.append(TraceRecord::load(0x400000, 0x1000000 + i * 64, 3));
    HierarchyParams hp;
    Hierarchy mem(hp);
    OooCore core(CoreParams(), mem);
    auto st = core.run(t, n);
    const double expected =
        static_cast<double>(n) / hp.l1d.mshrs *
        (hp.l1d.latency + hp.l2.latency + hp.dramLatency);
    EXPECT_LT(st.cycles, expected * 1.25);
    EXPECT_GT(st.cycles, expected * 0.75);
}

TEST(Core, LoadLatencyGatesDependent)
{
    Trace t;
    t.append(TraceRecord::load(0x400000, 0x1000000, 3));
    t.append(TraceRecord::alu(0x400004, 4, 3));
    HierarchyParams hp;
    Hierarchy mem(hp);
    OooCore core(CoreParams(), mem);
    auto st = core.run(t, 2);
    // Two instructions cannot finish before the miss resolves.
    EXPECT_GE(st.cycles,
              hp.l1d.latency + hp.l2.latency + hp.dramLatency);
}

TEST(Core, StoreToLoadForwarding)
{
    Trace t;
    // Store then load to the same line: the load must not go to DRAM.
    t.append(TraceRecord::alu(0x400000, 3));
    t.append(TraceRecord::store(0x400004, 0x2000000, 3));
    t.append(TraceRecord::load(0x400008, 0x2000000, 4));
    for (int i = 0; i < 20; ++i)
        t.append(TraceRecord::alu(0x40000c, 5, 4));
    HierarchyParams hp;
    Hierarchy mem(hp);
    OooCore core(CoreParams(), mem);
    auto st = core.run(t, t.size());
    // One I-cache fill (~334 cycles) but no data-side DRAM access.
    EXPECT_LT(st.cycles, 2 * hp.dramLatency);
    // Only the store itself reaches the L2 (write-allocate); the
    // forwarded load never does.
    EXPECT_LE(mem.stats().demandL2Accesses, 1u);
}

TEST(Core, YoungestOlderStoreDecidesForwarding)
{
    // Two older in-flight stores to line A: st1 issues at once, st2's
    // data waits on a DRAM miss. The load of A must wait for st2 and
    // forward from it, never from the already-issued st1. A store to
    // line C younger than the load of C must be ignored: that load
    // goes to the cache.
    Trace t;
    t.append(TraceRecord::alu(0x400000, 3));
    t.append(TraceRecord::store(0x400004, 0x2000000, 3));    // st1: A
    t.append(TraceRecord::load(0x400008, 0x3000000, 5));     // miss
    t.append(TraceRecord::store(0x40000c, 0x2000008, 5));    // st2: A
    t.append(TraceRecord::load(0x400010, 0x2000010, 6));     // A
    t.append(TraceRecord::load(0x400014, 0x4000000, 7, 5));  // C
    t.append(TraceRecord::store(0x400018, 0x4000008, 3));    // st3: C
    for (int i = 0; i < 8; ++i)
        t.append(TraceRecord::alu(0x40001c, 8, 6));
    HierarchyParams hp;
    Hierarchy mem(hp);
    OooCore core(CoreParams(), mem);
    Cycle miss_ready = 0;
    bool load_c_reached_cache = false;
    bool load_a_reached_cache = false;
    AccessOutcome load_a;
    auto st = core.run(
        t, t.size(),
        [&](const TraceRecord &rec, const AccessOutcome &out, Cycle) {
            if (rec.pc == 0x400010)
                load_a = out;
        },
        [&](const TraceRecord &rec, const AccessOutcome &out, Cycle) {
            if (rec.pc == 0x400008)
                miss_ready = out.readyAt;
            load_a_reached_cache |= rec.pc == 0x400010;
            load_c_reached_cache |= rec.pc == 0x400014;
        });
    EXPECT_EQ(st.instructions, t.size());
    ASSERT_GT(miss_ready, Cycle(0));
    EXPECT_FALSE(load_a_reached_cache);
    EXPECT_TRUE(load_a.l1Hit);
    // st2 issued once the miss returned; st1 would have forwarded
    // long before.
    EXPECT_GT(load_a.readyAt, miss_ready);
    EXPECT_TRUE(load_c_reached_cache);
}

TEST(Core, ForwardingFilterBucketAliasesStayExact)
{
    // Lines L and L + 256 share a bucket of the in-flight store
    // filter. A store to L + 256 whose data waits on a DRAM miss must
    // not hold back a load of L: that load goes to the cache at once.
    // A load behind a store to L itself still waits for the store,
    // then forwards from it.
    Trace t;
    t.append(TraceRecord::alu(0x400000, 3));
    t.append(TraceRecord::load(0x400004, 0x3000000, 5));   // miss
    t.append(TraceRecord::store(0x400008, 0x2004000, 5));  // L + 256
    t.append(TraceRecord::load(0x40000c, 0x2000000, 6));   // L
    t.append(TraceRecord::store(0x400010, 0x2000008, 5));  // L
    t.append(TraceRecord::load(0x400014, 0x2000010, 7));   // L
    for (int i = 0; i < 8; ++i)
        t.append(TraceRecord::alu(0x400018, 8, 6));
    ASSERT_EQ(lineOf(0x2004000), lineOf(0x2000000) + 256);
    HierarchyParams hp;
    Hierarchy mem(hp);
    OooCore core(CoreParams(), mem);
    Cycle miss_ready = 0;
    Cycle alias_load_at = 0;
    bool waiting_load_reached_cache = false;
    AccessOutcome waiting_load;
    auto st = core.run(
        t, t.size(),
        [&](const TraceRecord &rec, const AccessOutcome &out, Cycle) {
            if (rec.pc == 0x400014)
                waiting_load = out;
        },
        [&](const TraceRecord &rec, const AccessOutcome &out,
            Cycle now) {
            if (rec.pc == 0x400004)
                miss_ready = out.readyAt;
            if (rec.pc == 0x40000c)
                alias_load_at = now;
            waiting_load_reached_cache |= rec.pc == 0x400014;
        });
    EXPECT_EQ(st.instructions, t.size());
    ASSERT_GT(miss_ready, Cycle(0));
    ASSERT_GT(alias_load_at, Cycle(0));
    EXPECT_LT(alias_load_at, miss_ready);
    EXPECT_FALSE(waiting_load_reached_cache);
    EXPECT_TRUE(waiting_load.l1Hit);
    EXPECT_GT(waiting_load.readyAt, miss_ready);
}

TEST(Core, MispredictsCostCycles)
{
    auto run_with = [](bool predictable) {
        Trace t;
        std::uint64_t x = 123456789;
        for (int i = 0; i < 2000; ++i) {
            t.append(TraceRecord::alu(0x400000, 3));
            bool taken;
            if (predictable) {
                taken = true;
            } else {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                taken = (x & 1) != 0;
            }
            t.append(TraceRecord::branch(0x400004, taken, 0x400000));
        }
        HierarchyParams hp;
        Hierarchy mem(hp);
        OooCore core(CoreParams(), mem);
        return core.run(t, t.size());
    };
    auto predictable = run_with(true);
    auto random = run_with(false);
    EXPECT_GT(random.branchMispredicts,
              predictable.branchMispredicts * 10);
    EXPECT_GT(random.cycles, predictable.cycles * 2);
}

TEST(Core, MarkersAreTransparent)
{
    Trace plain, marked;
    for (int i = 0; i < 500; ++i) {
        if (i % 5 == 0)
            marked.append(TraceRecord::blockBegin(0x400000, 1));
        plain.append(TraceRecord::alu(0x400004, 3));
        marked.append(TraceRecord::alu(0x400004, 3));
        if (i % 5 == 4)
            marked.append(TraceRecord::blockEnd(0x400008, 1));
    }
    HierarchyParams hp;
    Hierarchy mem1(hp), mem2(hp);
    OooCore c1(CoreParams(), mem1), c2(CoreParams(), mem2);
    auto s_plain = c1.run(plain, plain.size());
    auto s_marked = c2.run(marked, marked.size());
    // Markers add commit slots but no execution latency: cycle counts
    // stay within the width-induced overhead.
    EXPECT_LT(s_marked.cycles, s_plain.cycles * 1.3 + 20);
}

TEST(Core, CommitHookSeesProgramOrder)
{
    Trace t;
    for (int i = 0; i < 100; ++i) {
        t.append(TraceRecord::load(0x400000 + i * 4,
                                   0x1000000 + (99 - i) * 6400,
                                   static_cast<RegIndex>(8 + i % 8)));
    }
    HierarchyParams hp;
    Hierarchy mem(hp);
    OooCore core(CoreParams(), mem);
    std::vector<Addr> pcs;
    core.run(t, t.size(),
             [&](const TraceRecord &rec, const AccessOutcome &, Cycle) {
                 pcs.push_back(rec.pc);
             });
    ASSERT_EQ(pcs.size(), 100u);
    for (std::size_t i = 0; i < pcs.size(); ++i)
        EXPECT_EQ(pcs[i], 0x400000u + i * 4);
}

TEST(Core, AccessHookFiresForLoadsAndStores)
{
    Trace t;
    t.append(TraceRecord::load(0x400000, 0x1000000, 3));
    t.append(TraceRecord::store(0x400004, 0x1004000, 3));
    HierarchyParams hp;
    Hierarchy mem(hp);
    OooCore core(CoreParams(), mem);
    unsigned loads = 0, stores = 0;
    core.run(t, 2, nullptr,
             [&](const TraceRecord &rec, const AccessOutcome &, Cycle) {
                 if (rec.cls == InstClass::Load)
                     ++loads;
                 else if (rec.cls == InstClass::Store)
                     ++stores;
             });
    EXPECT_EQ(loads, 1u);
    EXPECT_EQ(stores, 1u);
}

TEST(Core, LoopCycleAttribution)
{
    // All work inside annotated blocks -> loop fraction ~1.
    Trace t;
    for (int i = 0; i < 300; ++i) {
        t.append(TraceRecord::blockBegin(0x400000, 1));
        for (int k = 0; k < 4; ++k)
            t.append(TraceRecord::alu(0x400004 + k * 4, 5, 5));
        t.append(TraceRecord::blockEnd(0x400014, 1));
    }
    HierarchyParams hp;
    Hierarchy mem(hp);
    OooCore core(CoreParams(), mem);
    auto st = core.run(t, t.size());
    EXPECT_GT(st.loopFraction(), 0.9);

    // No markers at all -> loop fraction 0.
    HierarchyParams hp2;
    Hierarchy mem2(hp2);
    OooCore core2(CoreParams(), mem2);
    auto st2 = core2.run(independentAlus(1000), 1000);
    EXPECT_DOUBLE_EQ(st2.loopFraction(), 0.0);
}

TEST(Core, WarmupDiscardsEarlyStats)
{
    // First half: slow dependent chain. Second half: wide ALUs.
    Trace t;
    for (int i = 0; i < 1000; ++i)
        t.append(TraceRecord::alu(0x400000, 5, 5));
    for (int i = 0; i < 1000; ++i)
        t.append(TraceRecord::alu(0x400004 + (i % 8) * 4,
                                  static_cast<RegIndex>(8 + i % 16)));
    HierarchyParams hp;
    Hierarchy mem(hp);
    OooCore core(CoreParams(), mem);
    bool warm_fired = false;
    auto st = core.run(t, 2000, nullptr, nullptr, 1000,
                       [&](Cycle) { warm_fired = true; });
    EXPECT_TRUE(warm_fired);
    EXPECT_EQ(st.instructions, 1000u);
    // Measured region is the wide phase only.
    EXPECT_GT(st.ipc(), 2.5);
}

TEST(Core, StopsAtInstructionBudget)
{
    HierarchyParams hp;
    Hierarchy mem(hp);
    OooCore core(CoreParams(), mem);
    auto st = core.run(independentAlus(5000), 1234);
    EXPECT_EQ(st.instructions, 1234u);
}

TEST(Core, EmptyTrace)
{
    HierarchyParams hp;
    Hierarchy mem(hp);
    OooCore core(CoreParams(), mem);
    Trace t;
    auto st = core.run(t, 100);
    EXPECT_EQ(st.instructions, 0u);
}

TEST(Core, RerunOfTheSameTraceIsIdentical)
{
    // Record 0 is the only writer of r10 and reads it, so a rename
    // table left over from the previous run makes it its own producer
    // and the rerun deadlocks. The trace ends inside an open block, so
    // a stale fetch block flag would count the first cycles of the
    // rerun as loop cycles. No memory records or branches: after the
    // first run warms the L1I, the hierarchy and the predictor look
    // the same to every later run.
    Trace t;
    t.append(TraceRecord::alu(0x400000, 10, 10));
    t.append(TraceRecord::fp(0x400004, 5, 10, 7));
    for (int i = 0; i < 12; ++i) {
        t.append(TraceRecord::blockBegin(0x400008, 1));
        for (int k = 0; k < 4; ++k)
            t.append(TraceRecord::fp(0x40000c + k * 4, 5, 5));
        t.append(TraceRecord::blockEnd(0x40001c, 1));
        t.append(TraceRecord::alu(0x400020, 9));
    }
    t.append(TraceRecord::blockBegin(0x400024, 2));
    for (int k = 0; k < 3; ++k)
        t.append(TraceRecord::fp(0x400028 + k * 4, 7, 5, 7));
    HierarchyParams hp;
    Hierarchy mem(hp);
    OooCore core(CoreParams(), mem);
    core.run(t, t.size());
    const CoreStats first = core.run(t, t.size());
    const CoreStats second = core.run(t, t.size());
    EXPECT_EQ(first.instructions, t.size());
    EXPECT_GT(first.loopCycles, 0u);
    EXPECT_LT(first.loopCycles, first.cycles);
    EXPECT_EQ(first, second);
}

TEST(Core, HugeBudgetDoesNotWrapTheCycleLimit)
{
    // The livelock guard is 300 cycles per instruction plus 100000.
    // For a budget near 2^64 / 300 the product used to wrap to a
    // limit of about 100000 cycles, which cut this 200k-cycle chain of
    // dependent misses short as if the core had livelocked.
    Trace t;
    for (int i = 0; i < 600; ++i)
        t.append(TraceRecord::load(0x400000, 0x1000000 + i * 4096, 3, 3));
    HierarchyParams hp;
    Hierarchy mem(hp);
    OooCore core(CoreParams(), mem);
    const std::uint64_t huge = 61489146912365172ull;
    auto st = core.run(t, huge);
    EXPECT_EQ(core.cycleLimit(), ~Cycle(0));
    EXPECT_EQ(st.instructions, t.size());
    EXPECT_GT(st.cycles, 150000u);

    core.run(t, 1000);
    EXPECT_EQ(core.cycleLimit(), Cycle(1000 * 300 + 100000));
}

TEST(Core, ZeroLatencyIsFatal)
{
    // The ready list wakes consumers only in a later cycle than their
    // producer issued, so every completion must take >= 1 cycle.
    auto run_with = [](CoreParams cp, HierarchyParams hp) {
        Hierarchy mem(hp);
        OooCore core(cp, mem);
        core.run(independentAlus(8), 8);
    };
    const HierarchyParams hp;
    CoreParams alu;
    alu.intAluLatency = 0;
    EXPECT_EXIT(run_with(alu, hp), testing::ExitedWithCode(1),
                "latencies must be >= 1");
    CoreParams mul;
    mul.intMulLatency = 0;
    EXPECT_EXIT(run_with(mul, hp), testing::ExitedWithCode(1),
                "latencies must be >= 1");
    CoreParams fp;
    fp.fpLatency = 0;
    EXPECT_EXIT(run_with(fp, hp), testing::ExitedWithCode(1),
                "latencies must be >= 1");
    HierarchyParams l1_zero;
    l1_zero.l1d.latency = 0;
    EXPECT_EXIT(run_with(CoreParams(), l1_zero),
                testing::ExitedWithCode(1), "latencies must be >= 1");
}

} // anonymous namespace
} // namespace cbws
