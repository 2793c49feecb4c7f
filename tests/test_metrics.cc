/**
 * @file
 * Tests of the hierarchical metrics registry (base/metrics.hh), the
 * statistics primitives it depends on (base/stats.hh RunningStat and
 * Histogram), and the sim-side registration (sim/simmetrics.hh):
 * dumpText must stay byte-identical to the historical statsdump
 * format, and the registry built from a SimResult must render exactly
 * the lines dumpStats emits.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "base/json.hh"
#include "base/jsonparse.hh"
#include "base/metrics.hh"
#include "base/stats.hh"
#include "sim/simmetrics.hh"
#include "sim/statsdump.hh"
#include "workloads/registry.hh"

namespace cbws
{
namespace
{

TEST(MetricsRegistry, RegistrationOrderAndKinds)
{
    MetricsRegistry reg;
    reg.addScalar("sim.instructions", 1000, "instructions retired");
    reg.addReal("sim.ipc", 1.5, "instructions per cycle");
    reg.addVector("l1d.demand", {7, 3, 0}, "demand classification");
    Histogram h(4, 10.0);
    h.sample(5.0);
    h.sample(25.0);
    reg.addHistogram("pf.lateness", h, "prefetch lateness");
    reg.addFormula("l1d.missRate", 0.25, "misses / accesses",
                   "L1D miss rate");

    ASSERT_EQ(reg.size(), 5u);
    EXPECT_FALSE(reg.empty());
    // metrics() preserves registration order — the text dump and the
    // JSON section both depend on it.
    EXPECT_EQ(reg.metrics()[0].path, "sim.instructions");
    EXPECT_EQ(reg.metrics()[4].path, "l1d.missRate");
    EXPECT_EQ(reg.metrics()[0].kind, MetricsRegistry::Kind::Scalar);
    EXPECT_EQ(reg.metrics()[1].kind, MetricsRegistry::Kind::Real);
    EXPECT_EQ(reg.metrics()[2].kind, MetricsRegistry::Kind::Vector);
    EXPECT_EQ(reg.metrics()[3].kind,
              MetricsRegistry::Kind::Histogram);
    EXPECT_EQ(reg.metrics()[4].kind, MetricsRegistry::Kind::Formula);
    EXPECT_EQ(reg.metrics()[4].expr, "misses / accesses");
}

TEST(MetricsRegistry, FindAndSubtreeRespectDotBoundaries)
{
    MetricsRegistry reg;
    reg.addScalar("core0.l1d.misses", 10, "d");
    reg.addScalar("core0.l1d.hits", 90, "d");
    reg.addScalar("core01.l1d.misses", 5, "d");
    reg.addScalar("core0", 1, "d");

    const MetricsRegistry::Metric *m = reg.find("core0.l1d.misses");
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->uintValue, 10u);
    EXPECT_EQ(reg.find("core0.l1d"), nullptr);
    EXPECT_EQ(reg.find("nope"), nullptr);

    // "core0" must match "core0.l1d.*" and "core0" itself but never
    // "core01.*" — prefix matching is per dotted component.
    std::vector<const MetricsRegistry::Metric *> sub =
        reg.subtree("core0");
    ASSERT_EQ(sub.size(), 3u);
    for (const auto *metric : sub)
        EXPECT_EQ(metric->path.rfind("core01", 0), std::string::npos)
            << metric->path;
    EXPECT_EQ(reg.subtree("core0.l1d").size(), 2u);
    EXPECT_EQ(reg.subtree("core01").size(), 1u);
}

TEST(MetricsRegistry, DumpTextMatchesStatsdumpLineFormat)
{
    MetricsRegistry reg;
    reg.addScalar("sim.instructions", 20000,
                  "simulated instructions retired");
    reg.addReal("sim.ipc", 0.5, "instructions per cycle");
    reg.addVector("hidden.vector", {1, 2}, "must not appear");
    std::ostringstream out;
    reg.dumpText(out);

    // The historical statsdump layout: left-justified name in 40
    // columns, right-justified value in 16, two spaces, "# desc".
    std::istringstream lines(out.str());
    std::string line;
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_EQ(line,
              "sim.instructions                        "
              "           20000  # simulated instructions retired");
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_EQ(line.rfind("sim.ipc", 0), 0u);
    EXPECT_NE(line.find("0.5"), std::string::npos);
    // Vector metrics are JSON-only: the text dump must skip them so
    // registry adoption can never change golden statsdump bytes.
    EXPECT_FALSE(std::getline(lines, line)) << "extra line: " << line;
}

TEST(MetricsRegistry, WriteJsonRendersEveryKind)
{
    MetricsRegistry reg;
    reg.addScalar("a.count", 42, "count");
    reg.addReal("a.ratio", 0.75, "ratio");
    reg.addVector("a.vec", {1, 2, 3}, "vector");
    Histogram h(2, 5.0);
    h.sample(1.0);
    h.sample(100.0); // overflow
    reg.addHistogram("a.hist", h, "histogram");
    reg.addFormula("a.rate", 0.5, "x / y", "rate");

    JsonWriter w;
    reg.writeJson(w);
    ASSERT_TRUE(w.balanced());
    Result<JsonValue> doc = parseJson(w.str());
    ASSERT_TRUE(doc.ok()) << doc.error().str() << "\n" << w.str();
    const JsonValue &root = doc.value();
    ASSERT_TRUE(root.isObject());

    EXPECT_EQ(root.uintOr("a.count"), 42u);
    const JsonValue *ratio = root.find("a.ratio");
    ASSERT_NE(ratio, nullptr);
    EXPECT_DOUBLE_EQ(ratio->number, 0.75);
    const JsonValue *vec = root.find("a.vec");
    ASSERT_NE(vec, nullptr);
    ASSERT_TRUE(vec->isArray());
    ASSERT_EQ(vec->array.size(), 3u);
    EXPECT_EQ(vec->array[2].uintValue, 3u);
    const JsonValue *hist = root.find("a.hist");
    ASSERT_NE(hist, nullptr);
    EXPECT_EQ(hist->uintOr("overflow"), 1u);
    const JsonValue *rate = root.find("a.rate");
    ASSERT_NE(rate, nullptr);
    EXPECT_EQ(rate->strOr("expr"), "x / y");
}

TEST(SimMetrics, RegistryRendersExactlyTheStatsdumpBody)
{
    auto w = findWorkload("stencil-default");
    ASSERT_NE(w, nullptr);
    SystemConfig cfg;
    cfg.scheme = "CBWS+SMS";
    WorkloadParams params;
    params.maxInstructions = 10000;
    SimResult r = simulateWorkload(*w, cfg, params);

    // dumpStats == banner + workload line + registry text + banner.
    // This is the single-source-of-truth guarantee: there is no
    // second serializer that could drift from the registry.
    std::ostringstream full;
    dumpStats(full, r);
    std::ostringstream body;
    simMetrics(r).dumpText(body);
    EXPECT_NE(full.str().find(body.str()), std::string::npos);

    const MetricsRegistry reg = simMetrics(r);
    const MetricsRegistry::Metric *insts =
        reg.find("sim.instructions");
    ASSERT_NE(insts, nullptr);
    EXPECT_EQ(insts->uintValue, r.core.instructions);
    EXPECT_FALSE(reg.subtree("l1d").empty());
    EXPECT_FALSE(reg.subtree("pf").empty());
    EXPECT_FALSE(reg.subtree("dram").empty());
}

TEST(RunningStat, WelfordMatchesClosedFormOnKnownSet)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.sample(v);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    // Population variance of the classic Wikipedia set is exactly 4.
    EXPECT_DOUBLE_EQ(s.variance(), 4.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.sum(), 0.0);
}

TEST(RunningStat, KahanSumSurvivesMagnitudeSpread)
{
    // Naive summation of 1e16 + 1.0 * N loses every unit increment;
    // the compensated sum must keep them all.
    RunningStat s;
    s.sample(1e16);
    for (int i = 0; i < 1000; ++i)
        s.sample(1.0);
    EXPECT_DOUBLE_EQ(s.sum() - 1e16, 1000.0);
}

TEST(Histogram, OverflowIsExplicitAndCountedInLastBucket)
{
    Histogram h(4, 10.0);
    h.sample(5.0);        // bucket 0
    h.sample(35.0);       // bucket 3 (last)
    h.sample(1000.0);     // overflow -> also folded into last bucket
    h.sample(39.999);     // bucket 3
    EXPECT_EQ(h.numBuckets(), 4u);
    EXPECT_DOUBLE_EQ(h.bucketWidth(), 10.0);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(1), 0u);
    EXPECT_EQ(h.bucket(3), 3u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.total(), 4u);
}

TEST(Histogram, MergeAddsCountsTotalsAndOverflow)
{
    Histogram a(4, 10.0), b(4, 10.0);
    a.sample(5.0);
    a.sample(500.0);
    b.sample(15.0, 3);
    b.sample(500.0);
    a.merge(b);
    EXPECT_EQ(a.bucket(0), 1u);
    EXPECT_EQ(a.bucket(1), 3u);
    EXPECT_EQ(a.overflow(), 2u);
    EXPECT_EQ(a.total(), 6u);
}

} // anonymous namespace
} // namespace cbws
