/**
 * @file
 * Tests for the top-level simulation driver and experiment runner.
 */

#include <gtest/gtest.h>

#include "base/metrics.hh"
#include "sim/experiment.hh"
#include "sim/report.hh"
#include "workloads/registry.hh"

namespace cbws
{
namespace
{

TEST(Config, PrefetcherNames)
{
    const std::vector<std::string> names = allSchemeNames();
    ASSERT_EQ(names.size(), 7u);
    EXPECT_EQ(names.front(), "No-Prefetch");
    EXPECT_EQ(names[4], "SMS");
    EXPECT_EQ(names.back(), "CBWS+SMS");
    EXPECT_EQ(SystemConfig().scheme, "No-Prefetch");
}

TEST(Config, MakePrefetcherMatchesKind)
{
    for (const std::string &name : extendedSchemeNames()) {
        SystemConfig cfg;
        cfg.scheme = name;
        auto pf = makePrefetcher(cfg);
        ASSERT_NE(pf, nullptr);
        EXPECT_EQ(pf->name(), name);
    }
}

TEST(Simulate, EndToEndProducesSaneMetrics)
{
    auto w = findWorkload("stencil-default");
    ASSERT_NE(w, nullptr);
    SystemConfig cfg;
    WorkloadParams params;
    params.maxInstructions = 20000;
    SimResult r = simulateWorkload(*w, cfg, params);
    EXPECT_EQ(r.workload, "stencil-default");
    EXPECT_EQ(r.prefetcher, "No-Prefetch");
    EXPECT_EQ(r.core.instructions, params.maxInstructions);
    EXPECT_GT(r.ipc(), 0.0);
    EXPECT_LE(r.ipc(), 4.0);
    EXPECT_GT(r.mpki(), 0.0);
    EXPECT_GT(r.mem.dramBytesRead, 0u);
    EXPECT_GT(r.core.loopFraction(), 0.5);
}

TEST(Simulate, CbwsCutsStencilMisses)
{
    auto w = findWorkload("stencil-default");
    WorkloadParams params;
    params.maxInstructions = 30000;
    Trace t;
    w->generate(t, params);

    SystemConfig none_cfg, cbws_cfg;
    cbws_cfg.scheme = "CBWS";
    SimResult none = simulate(t, none_cfg, params.maxInstructions);
    SimResult cbws = simulate(t, cbws_cfg, params.maxInstructions);
    EXPECT_LT(cbws.mpki(), none.mpki() * 0.3);
    EXPECT_GT(cbws.ipc(), none.ipc() * 1.5);
}

TEST(Simulate, DifferentialProbeAttaches)
{
    auto w = findWorkload("stencil-default");
    WorkloadParams params;
    params.maxInstructions = 10000;
    SystemConfig cfg;
    cfg.scheme = "CBWS";
    FrequencyCounter probe;
    SimProbes probes;
    probes.differentials = &probe;
    simulateWorkload(*w, cfg, params, probes);
    EXPECT_GT(probe.total(), 100u);
    // The stencil's differential distribution is extremely skewed
    // (Fig. 5): very few distinct vectors.
    EXPECT_LT(probe.distinct(), probe.total() / 10);

    // The probe also attaches through the composite.
    FrequencyCounter probe2;
    probes.differentials = &probe2;
    cfg.scheme = "CBWS+SMS";
    simulateWorkload(*w, cfg, params, probes);
    EXPECT_GT(probe2.total(), 100u);
}

TEST(Simulate, WarmupReducesColdMisses)
{
    auto w = findWorkload("458.sjeng-ref"); // L2-resident working set
    WorkloadParams params;
    params.maxInstructions = 60000;
    Trace t;
    w->generate(t, params);
    SystemConfig cfg;
    SimResult cold = simulate(t, cfg, params.maxInstructions);
    SimResult warm = simulate(t, cfg, params.maxInstructions,
                              SimProbes(), 30000);
    EXPECT_LT(warm.mpki(), cold.mpki());
}

TEST(Simulate, EveryCbwsSchemeExposesItsHistoryTable)
{
    // CBWS alone, fused with SMS, and bolted onto AMPM all expose the
    // CBWS history table to the scheme metrics and the differential
    // probe.
    auto w = findWorkload("sgemm-medium");
    WorkloadParams params;
    params.maxInstructions = 20000;
    Trace t;
    w->generate(t, params);
    for (const char *scheme : {"CBWS", "CBWS+SMS", "CBWS+AMPM"}) {
        FrequencyCounter differentials;
        MetricsRegistry metrics;
        SystemConfig cfg;
        cfg.scheme = scheme;
        SimProbes probes;
        probes.differentials = &differentials;
        probes.schemeMetrics = &metrics;
        simulate(t, cfg, params.maxInstructions, probes);
        EXPECT_GT(differentials.total(), 0u) << scheme;
        const auto *occupancy =
            metrics.find("pf.scheme.cbws.tableOccupancy");
        const auto *capacity =
            metrics.find("pf.scheme.cbws.tableCapacity");
        const auto *hit_rate = metrics.find("pf.scheme.cbws.tableHitRate");
        ASSERT_NE(occupancy, nullptr) << scheme;
        ASSERT_NE(capacity, nullptr) << scheme;
        ASSERT_NE(hit_rate, nullptr) << scheme;
        EXPECT_GT(capacity->uintValue, 0u) << scheme;
        EXPECT_LE(occupancy->uintValue, capacity->uintValue) << scheme;
        EXPECT_GE(hit_rate->realValue, 0.0) << scheme;
        EXPECT_LE(hit_rate->realValue, 1.0) << scheme;
    }
}

TEST(Simulate, TraceEndingBeforeWarmupKeepsWholeRun)
{
    // A lone core whose trace ends before its warm-up boundary never
    // crosses it: the hierarchy is not reset and nothing is
    // subtracted, so the result equals a run without warm-up.
    auto w = findWorkload("radix-simlarge");
    WorkloadParams params;
    params.maxInstructions = 4000;
    Trace t;
    w->generate(t, params);
    SystemConfig cfg;
    cfg.scheme = "CBWS+SMS";
    const std::uint64_t budget = 100000;
    const SimResult early =
        simulate(t, cfg, budget, SimProbes(), /*warmup_insts=*/50000);
    const SimResult whole = simulate(t, cfg, budget);
    EXPECT_EQ(early.core.instructions, t.size());
    EXPECT_GT(early.mem.l1dAccesses, 0u);
    EXPECT_EQ(toJson(early), toJson(whole));
}

TEST(Simulate, DeterministicAcrossRuns)
{
    auto w = findWorkload("radix-simlarge");
    WorkloadParams params;
    params.maxInstructions = 15000;
    Trace t;
    w->generate(t, params);
    SystemConfig cfg;
    cfg.scheme = "CBWS+SMS";
    SimResult a = simulate(t, cfg, params.maxInstructions);
    SimResult b = simulate(t, cfg, params.maxInstructions);
    EXPECT_EQ(a.core.cycles, b.core.cycles);
    EXPECT_EQ(a.mem.llcDemandMisses, b.mem.llcDemandMisses);
    EXPECT_EQ(a.mem.prefetchesIssued, b.mem.prefetchesIssued);
}

TEST(Experiment, MatrixShapeAndLookup)
{
    std::vector<WorkloadPtr> ws;
    ws.push_back(findWorkload("sgemm-medium"));
    ws.push_back(findWorkload("histo-large"));
    const std::vector<std::string> kinds = {"No-Prefetch", "SMS",
                                            "CBWS+SMS"};
    SystemConfig cfg;
    auto matrix = runMatrix(ws, kinds, cfg, 12000);
    ASSERT_EQ(matrix.rows.size(), 2u);
    ASSERT_EQ(matrix.rows[0].byPrefetcher.size(), 3u);
    EXPECT_EQ(matrix.result(0, "SMS").prefetcher, "SMS");
    EXPECT_EQ(matrix.rows[0].workload, "sgemm-medium");
    EXPECT_TRUE(matrix.rows[0].memoryIntensive);

    const double avg_mi = matrix.average(
        [&](const WorkloadRow &row) {
            return row.byPrefetcher[0].ipc();
        },
        /*mi_only=*/true);
    EXPECT_GT(avg_mi, 0.0);
}

TEST(Experiment, BudgetEnvOverride)
{
    unsetenv("CBWS_BENCH_INSTS");
    EXPECT_EQ(benchInstructionBudget(4242), 4242u);
    setenv("CBWS_BENCH_INSTS", "777", 1);
    EXPECT_EQ(benchInstructionBudget(4242), 777u);
    // Anything but a positive plain-decimal count is fatal, never a
    // silent fallback or a truncated prefix.
    for (const char *bad : {"20k", "abc", "0x100", " 5000", "0"}) {
        setenv("CBWS_BENCH_INSTS", bad, 1);
        EXPECT_EXIT(benchInstructionBudget(4242),
                    testing::ExitedWithCode(1),
                    std::string("CBWS_BENCH_INSTS='") + bad + "'");
    }
    unsetenv("CBWS_BENCH_INSTS");
}

TEST(SimResult, DerivedMetrics)
{
    SimResult r;
    r.core.instructions = 1000;
    r.core.cycles = 2000;
    r.mem.llcDemandMisses = 50;
    r.mem.demandL2Accesses = 100;
    r.mem.classCounts[static_cast<int>(DemandClass::Timely)] = 25;
    r.mem.wrongPrefetches = 10;
    r.mem.dramBytesRead = 6400;
    EXPECT_DOUBLE_EQ(r.ipc(), 0.5);
    EXPECT_DOUBLE_EQ(r.mpki(), 50.0);
    EXPECT_DOUBLE_EQ(r.classFraction(DemandClass::Timely), 0.25);
    EXPECT_DOUBLE_EQ(r.wrongFraction(), 0.10);
    EXPECT_DOUBLE_EQ(r.perfPerByte(), 0.5 / 6400);
}

} // anonymous namespace
} // namespace cbws
