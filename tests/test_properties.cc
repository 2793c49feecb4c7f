/**
 * @file
 * Property-style tests: invariants that must hold for every
 * prefetcher, every CBWS configuration, and randomly generated access
 * streams (parameterised gtest sweeps).
 */

#include <gtest/gtest.h>

#include "core/cbws_prefetcher.hh"
#include "mem/hierarchy.hh"
#include "sim/experiment.hh"
#include "test_util.hh"
#include "workloads/registry.hh"

namespace cbws
{
namespace
{

using test::MockSink;
using test::memCtx;

/**
 * A scheme by its position in extendedSchemeNames(). The index, not
 * the name, is the test parameter: gtest prints an unprintable 4-byte
 * struct as its bytes, which keeps the instantiated test names stable.
 */
struct SchemeIndex
{
    std::uint32_t index;

    std::string name() const { return extendedSchemeNames().at(index); }
};

std::vector<SchemeIndex>
schemeIndices(std::size_t count)
{
    std::vector<SchemeIndex> out;
    for (std::uint32_t i = 0; i < count; ++i)
        out.push_back(SchemeIndex{i});
    return out;
}

std::string
schemeTestName(const testing::TestParamInfo<SchemeIndex> &param_info)
{
    std::string s = param_info.param.name();
    for (char &c : s)
        if (!isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return s;
}

// ---- Property: every prefetcher behaves sanely on random traces ----

class PrefetcherPropertyTest : public testing::TestWithParam<SchemeIndex>
{
};

TEST_P(PrefetcherPropertyTest, SurvivesRandomAccessStream)
{
    SystemConfig cfg;
    cfg.scheme = GetParam().name();
    auto pf = makePrefetcher(cfg);
    MockSink sink;
    Random rng(99);
    for (int i = 0; i < 3000; ++i) {
        if (rng.chance(0.05))
            pf->blockBegin(static_cast<BlockId>(rng.below(4)), sink);
        if (rng.chance(0.05))
            pf->blockEnd(static_cast<BlockId>(rng.below(4)), sink);
        auto ctx = memCtx(0x400 + rng.below(64) * 4,
                          rng.below(1ull << 30), rng.chance(0.3),
                          rng.chance(0.5), rng.chance(0.5));
        pf->observeAccess(ctx, sink);
        pf->observeCommit(ctx, sink);
    }
    SUCCEED();
}

TEST_P(PrefetcherPropertyTest, NeverIssuesCachedLines)
{
    // Prefetchers consult isCached() before issuing: a sink claiming
    // everything is cached must see zero issues.
    SystemConfig cfg;
    cfg.scheme = GetParam().name();
    auto pf = makePrefetcher(cfg);

    class AllCachedSink : public PrefetchSink
    {
      public:
        void issuePrefetch(LineAddr, PfSource) override { ++issued; }
        bool isCached(LineAddr) const override { return true; }
        unsigned issued = 0;
    } sink;

    for (int b = 0; b < 40; ++b) {
        pf->blockBegin(1, sink);
        for (int j = 0; j < 3; ++j) {
            auto ctx = memCtx(0x400 + j * 4,
                              (1000 + b * 4ull + j * 2000) * 64);
            pf->observeAccess(ctx, sink);
            pf->observeCommit(ctx, sink);
        }
        pf->blockEnd(1, sink);
    }
    EXPECT_EQ(sink.issued, 0u);
}

TEST_P(PrefetcherPropertyTest, EndToEndInvariants)
{
    auto w = findWorkload("433.milc-su3imp");
    WorkloadParams params;
    params.maxInstructions = 15000;
    Trace t;
    w->generate(t, params);

    SystemConfig cfg;
    cfg.scheme = GetParam().name();
    SimResult r = simulate(t, cfg, params.maxInstructions);

    const auto &m = r.mem;
    // Classified accesses never exceed the demand L2 access count
    // (wrong prefetches are counted separately and may exceed it).
    std::uint64_t classified = 0;
    for (int c = 1; c < static_cast<int>(DemandClass::NumClasses);
         ++c) {
        classified += m.classCounts[c];
    }
    EXPECT_LE(classified, m.demandL2Accesses);
    // Misses cannot exceed demand accesses; traffic is line-granular.
    EXPECT_LE(m.llcDemandMisses, m.demandL2Accesses);
    EXPECT_EQ(m.dramBytesRead % LineBytes, 0u);
    EXPECT_EQ(m.dramBytesWritten % LineBytes, 0u);
    // Issued prefetches are bounded by requests.
    EXPECT_LE(m.prefetchesIssued, m.prefetchesRequested);
    EXPECT_LE(m.prefetchesFiltered + m.prefetchesDropped +
                  m.prefetchesIssued,
              m.prefetchesRequested + m.prefetchesIssued);
    // The core committed what was asked.
    EXPECT_EQ(r.core.instructions, params.maxInstructions);
    EXPECT_GE(r.core.cycles, params.maxInstructions / 4);
    EXPECT_GE(r.core.loopCycles, 0u);
    EXPECT_LE(r.core.loopCycles, r.core.cycles);
}

TEST_P(PrefetcherPropertyTest, LifecycleConservationLaws)
{
    // Every tracked prefetch resolves exactly once: with no warmup
    // window (stats are never reset mid-run), the finalized lifecycle
    // counters of every source must satisfy
    //
    //   issued == dropped + merged + filled
    //   filled == demandHitTimely + demandHitLate
    //             + evictedUnused + residentAtEnd
    //
    // across several workloads.
    for (const char *wname :
         {"433.milc-su3imp", "sgemm-medium", "fft-simlarge"}) {
        auto w = findWorkload(wname);
        ASSERT_NE(w, nullptr) << wname;
        WorkloadParams params;
        params.maxInstructions = 12000;
        Trace t;
        w->generate(t, params);

        SystemConfig cfg;
        cfg.scheme = GetParam().name();
        SimResult r = simulate(t, cfg, params.maxInstructions,
                               SimProbes(), /*warmup_insts=*/0);

        std::uint64_t any_issued = 0;
        for (unsigned s = 0; s < NumPfSources; ++s) {
            const PrefetchLifecycle &life = r.mem.pfLife[s];
            const char *src = toString(static_cast<PfSource>(s));
            EXPECT_EQ(life.issued,
                      life.dropped + life.merged + life.filled)
                << wname << " src=" << src;
            EXPECT_EQ(life.filled,
                      life.demandHitTimely + life.demandHitLate +
                          life.evictedUnused + life.residentAtEnd)
                << wname << " src=" << src;
            any_issued += life.issued;
        }
        // The lifecycle view must agree with the flat counters.
        EXPECT_EQ(any_issued, r.mem.prefetchesRequested);
        const PrefetchLifecycle total = r.mem.pfLifeTotal();
        EXPECT_EQ(total.filled, r.mem.prefetchesIssued);
        // The lateness histogram records one entry per demand hit.
        std::uint64_t hist = 0;
        for (unsigned b = 0; b < LatenessBuckets; ++b)
            hist += r.mem.latenessHist[b];
        EXPECT_EQ(hist, total.demandHits());
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, PrefetcherPropertyTest,
    testing::ValuesIn(schemeIndices(allSchemeNames().size())),
    schemeTestName);

// ---- Property: CBWS predicts constant strides for any geometry ----

struct CbwsSweepParam
{
    unsigned maxVectorMembers;
    unsigned numSteps;
    unsigned tableEntries;
    unsigned historyDepth;
};

class CbwsParamSweepTest
    : public testing::TestWithParam<CbwsSweepParam>
{
};

TEST_P(CbwsParamSweepTest, ConstantStridePatternAlwaysLearned)
{
    const auto sweep = GetParam();
    CbwsParams params;
    params.maxVectorMembers = sweep.maxVectorMembers;
    params.numSteps = sweep.numSteps;
    params.tableEntries = sweep.tableEntries;
    params.historyDepth = sweep.historyDepth;
    CbwsPrefetcher pf(params);
    MockSink sink;

    const unsigned lines_per_block = 3;
    for (unsigned b = 0; b < 40; ++b) {
        pf.blockBegin(1, sink);
        for (unsigned j = 0; j < lines_per_block; ++j) {
            pf.observeCommit(
                memCtx(0x400 + j * 4,
                       (10000 * (j + 1) + b * (j + 2)) * 64ull),
                sink);
        }
        pf.blockEnd(1, sink);
    }
    const auto &s = pf.schemeStats();
    EXPECT_EQ(s.blocksCompleted, 40u);
    EXPECT_GT(s.tableHits, 0u);
    EXPECT_GT(s.linesPredicted, 0u);
    // Step-1 prediction of the next block's first stream.
    EXPECT_TRUE(sink.wasIssued(10000 + 40ull * 2));
}

TEST_P(CbwsParamSweepTest, StorageScalesWithGeometry)
{
    const auto sweep = GetParam();
    CbwsParams params;
    params.maxVectorMembers = sweep.maxVectorMembers;
    params.numSteps = sweep.numSteps;
    params.tableEntries = sweep.tableEntries;
    params.historyDepth = sweep.historyDepth;
    CbwsPrefetcher pf(params);
    // Sanity: strictly positive and monotone in the table size.
    CbwsParams bigger = params;
    bigger.tableEntries *= 2;
    EXPECT_GT(CbwsPrefetcher(bigger).storageBits(),
              pf.storageBits());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CbwsParamSweepTest,
    testing::Values(CbwsSweepParam{16, 4, 16, 4},  // paper default
                    CbwsSweepParam{8, 4, 16, 4},   // narrow vectors
                    CbwsSweepParam{32, 4, 16, 4},  // wide vectors
                    CbwsSweepParam{16, 1, 16, 4},  // single step
                    CbwsSweepParam{16, 8, 16, 4},  // deep steps
                    CbwsSweepParam{16, 4, 4, 4},   // tiny table
                    CbwsSweepParam{16, 4, 64, 4},  // big table
                    CbwsSweepParam{16, 4, 16, 2},  // short history
                    CbwsSweepParam{16, 4, 16, 8}), // long history
    [](const testing::TestParamInfo<CbwsSweepParam> &param_info) {
        return "v" + std::to_string(param_info.param.maxVectorMembers) +
               "_s" + std::to_string(param_info.param.numSteps) + "_t" +
               std::to_string(param_info.param.tableEntries) + "_h" +
               std::to_string(param_info.param.historyDepth);
    });

// ---- Property: hierarchy invariants under random demand load ----

class HierarchyRandomTest : public testing::TestWithParam<unsigned>
{
};

TEST_P(HierarchyRandomTest, InvariantsUnderRandomTraffic)
{
    HierarchyParams params;
    Hierarchy mem(params);
    Random rng(GetParam());
    Cycle now = 0;
    std::uint64_t ok_loads = 0;
    for (int i = 0; i < 5000; ++i) {
        now += rng.below(5);
        mem.tick(now);
        const Addr addr = rng.below(1 << 22) * 8;
        if (rng.chance(0.1)) {
            mem.enqueuePrefetch(lineOf(rng.below(1 << 22) * 8));
        } else if (rng.chance(0.3)) {
            mem.store(addr, now);
        } else {
            auto out = mem.load(addr, now);
            if (out.ok) {
                ++ok_loads;
                EXPECT_GE(out.readyAt, now + params.l1d.latency);
                EXPECT_LE(out.readyAt,
                          now + params.l1d.latency * 2 +
                              params.l2.latency + params.dramLatency);
            }
        }
    }
    mem.finalize();
    const auto &s = mem.stats();
    EXPECT_GT(ok_loads, 0u);
    EXPECT_LE(s.l1dMisses, s.l1dAccesses);
    EXPECT_LE(s.llcDemandMisses, s.demandL2Accesses);
    EXPECT_EQ(s.dramBytesRead % LineBytes, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HierarchyRandomTest,
                         testing::Values(1u, 2u, 3u, 4u, 5u));

// ---- Property: random-but-wellformed traces through the full
// simulator, every scheme (including the extensions) ----

class SimulatorFuzzTest : public testing::TestWithParam<SchemeIndex>
{
};

TEST_P(SimulatorFuzzTest, RandomTraceRunsToCompletion)
{
    Random rng(1234 + GetParam().index);
    Trace t;
    Addr pc = 0x400000;
    bool in_block = false;
    while (t.size() < 6000) {
        const double roll = rng.real();
        if (roll < 0.05) {
            if (!in_block) {
                t.append(TraceRecord::blockBegin(
                    pc, static_cast<BlockId>(rng.below(3))));
                in_block = true;
            } else {
                t.append(TraceRecord::blockEnd(
                    pc, static_cast<BlockId>(rng.below(3))));
                in_block = false;
            }
        } else if (roll < 0.35) {
            t.append(TraceRecord::load(
                pc, 0x1000000 + rng.below(1 << 24),
                static_cast<RegIndex>(rng.below(32)),
                static_cast<RegIndex>(rng.below(32))));
        } else if (roll < 0.45) {
            t.append(TraceRecord::store(
                pc, 0x1000000 + rng.below(1 << 24),
                static_cast<RegIndex>(rng.below(32))));
        } else if (roll < 0.55) {
            t.append(TraceRecord::branch(pc, rng.chance(0.5),
                                         0x400000 +
                                             rng.below(256) * 4));
        } else {
            t.append(TraceRecord::alu(
                pc, static_cast<RegIndex>(rng.below(32)),
                static_cast<RegIndex>(rng.below(32))));
        }
        pc = 0x400000 + rng.below(256) * 4;
    }

    SystemConfig cfg;
    cfg.scheme = GetParam().name();
    SimResult r = simulate(t, cfg, 5000);
    EXPECT_EQ(r.core.instructions, 5000u);
    EXPECT_GT(r.core.cycles, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    ExtendedKinds, SimulatorFuzzTest,
    testing::ValuesIn(schemeIndices(extendedSchemeNames().size())),
    schemeTestName);

// ---- Property: identical traces, identical results per scheme ----

TEST(Determinism, WholeMatrixIsReproducible)
{
    std::vector<WorkloadPtr> ws;
    ws.push_back(findWorkload("fft-simlarge"));
    const std::vector<std::string> kinds = {"CBWS", "SMS"};
    SystemConfig cfg;
    auto m1 = runMatrix(ws, kinds, cfg, 8000);
    ws.clear();
    ws.push_back(findWorkload("fft-simlarge"));
    auto m2 = runMatrix(ws, kinds, cfg, 8000);
    for (std::size_t k = 0; k < kinds.size(); ++k) {
        EXPECT_EQ(m1.rows[0].byPrefetcher[k].core.cycles,
                  m2.rows[0].byPrefetcher[k].core.cycles);
        EXPECT_EQ(m1.rows[0].byPrefetcher[k].mem.llcDemandMisses,
                  m2.rows[0].byPrefetcher[k].mem.llcDemandMisses);
    }
}

} // anonymous namespace
} // namespace cbws
