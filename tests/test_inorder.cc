/**
 * @file
 * Unit tests for the scalar in-order core model (extension).
 */

#include <gtest/gtest.h>

#include "cpu/inorder.hh"
#include "sim/simulator.hh"
#include "workloads/registry.hh"

namespace cbws
{
namespace
{

TEST(InOrderCore, ScalarThroughputBound)
{
    Trace t;
    for (int i = 0; i < 2000; ++i)
        t.append(TraceRecord::alu(0x400000 + (i % 8) * 4,
                                  static_cast<RegIndex>(8 + i % 16)));
    HierarchyParams hp;
    Hierarchy mem(hp);
    InOrderCore core(CoreParams(), mem);
    auto st = core.run(t, 2000);
    EXPECT_EQ(st.instructions, 2000u);
    EXPECT_LE(st.ipc(), 1.0); // scalar: at most one per cycle
    EXPECT_GT(st.ipc(), 0.7); // independent ALUs run near peak
}

TEST(InOrderCore, StallOnUseNotOnIssue)
{
    // A load followed by independent ALUs, then the consumer: the
    // ALUs overlap the miss; the consumer pays it.
    auto run = [](unsigned independent_alus) {
        Trace t;
        t.append(TraceRecord::load(0x400000, 0x1000000, 3));
        for (unsigned i = 0; i < independent_alus; ++i)
            t.append(TraceRecord::alu(0x400004, 8));
        t.append(TraceRecord::alu(0x400008, 4, 3)); // consumer
        HierarchyParams hp;
        Hierarchy mem(hp);
        InOrderCore core(CoreParams(), mem);
        return core.run(t, t.size()).cycles;
    };
    // Extra independent work is (almost) free under the miss.
    EXPECT_LE(run(100), run(0) + 110);
    EXPECT_GE(run(0), 300u); // the consumer waited for DRAM
}

TEST(InOrderCore, LoadsOverlapUpToMshrs)
{
    Trace t;
    const unsigned n = 64;
    for (unsigned i = 0; i < n; ++i) {
        t.append(TraceRecord::load(0x400000,
                                   0x1000000 + i * 64ull,
                                   static_cast<RegIndex>(8 + i % 8)));
    }
    HierarchyParams hp;
    Hierarchy mem(hp);
    InOrderCore core(CoreParams(), mem);
    auto st = core.run(t, n);
    // Independent loads overlap through the 4 L1 MSHRs.
    const double serial = n * 334.0;
    EXPECT_LT(st.cycles, serial / 2);
}

TEST(InOrderCore, MispredictPenaltyApplied)
{
    auto run = [](bool predictable) {
        Trace t;
        std::uint64_t x = 55;
        for (int i = 0; i < 1000; ++i) {
            t.append(TraceRecord::alu(0x400000, 3));
            bool taken = true;
            if (!predictable) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                taken = (x & 1) != 0;
            }
            t.append(TraceRecord::branch(0x400004, taken, 0x400000));
        }
        HierarchyParams hp;
        Hierarchy mem(hp);
        InOrderCore core(CoreParams(), mem);
        return core.run(t, t.size());
    };
    EXPECT_GT(run(false).cycles, run(true).cycles * 2);
}

TEST(InOrderCore, HooksFireInProgramOrder)
{
    Trace t;
    t.append(TraceRecord::blockBegin(0x400000, 3));
    t.append(TraceRecord::load(0x400004, 0x1000000, 3));
    t.append(TraceRecord::store(0x400008, 0x2000000, 3));
    t.append(TraceRecord::blockEnd(0x40000c, 3));
    HierarchyParams hp;
    Hierarchy mem(hp);
    InOrderCore core(CoreParams(), mem);
    std::vector<InstClass> commits;
    unsigned accesses = 0;
    core.run(
        t, t.size(),
        [&](const TraceRecord &rec, const AccessOutcome &, Cycle) {
            commits.push_back(rec.cls);
        },
        [&](const TraceRecord &, const AccessOutcome &, Cycle) {
            ++accesses;
        });
    ASSERT_EQ(commits.size(), 4u);
    EXPECT_EQ(commits[0], InstClass::BlockBegin);
    EXPECT_EQ(commits[3], InstClass::BlockEnd);
    EXPECT_EQ(accesses, 2u);
}

TEST(InOrderCore, EndToEndThroughConfig)
{
    auto w = findWorkload("stencil-default");
    WorkloadParams params;
    params.maxInstructions = 20000;
    Trace trace;
    w->generate(trace, params);

    SystemConfig ooo_cfg, io_cfg;
    io_cfg.coreModel = CoreModel::InOrder;
    SimResult ooo = simulate(trace, ooo_cfg, params.maxInstructions);
    SimResult io = simulate(trace, io_cfg, params.maxInstructions);
    // The OoO core hides more latency than the scalar in-order one.
    EXPECT_GT(ooo.ipc(), io.ipc());
    EXPECT_GT(io.ipc(), 0.0);
}

TEST(InOrderCore, PrefetchingHelpsMoreThanOnOoO)
{
    // The extension's headline: relative prefetch benefit is larger
    // on the in-order core (no OoO latency tolerance).
    auto w = findWorkload("sgemm-medium");
    WorkloadParams params;
    params.maxInstructions = 30000;
    Trace trace;
    w->generate(trace, params);

    auto speedup = [&](CoreModel model) {
        SystemConfig none_cfg, pf_cfg;
        none_cfg.coreModel = pf_cfg.coreModel = model;
        pf_cfg.scheme = "CBWS+SMS";
        const double base =
            simulate(trace, none_cfg, params.maxInstructions).ipc();
        const double pf =
            simulate(trace, pf_cfg, params.maxInstructions).ipc();
        return pf / base;
    };
    EXPECT_GT(speedup(CoreModel::InOrder), 1.5);
    EXPECT_GT(speedup(CoreModel::InOrder),
              speedup(CoreModel::OutOfOrder) * 0.8);
}

TEST(InOrderCore, WarmupSubtraction)
{
    Trace t;
    for (int i = 0; i < 2000; ++i)
        t.append(TraceRecord::alu(0x400000, 8));
    HierarchyParams hp;
    Hierarchy mem(hp);
    InOrderCore core(CoreParams(), mem);
    bool fired = false;
    auto st = core.run(t, 2000, nullptr, nullptr, 1000,
                       [&](Cycle) { fired = true; });
    EXPECT_TRUE(fired);
    EXPECT_EQ(st.instructions, 1000u);
}

} // anonymous namespace
} // namespace cbws
