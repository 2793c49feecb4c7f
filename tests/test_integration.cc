/**
 * @file
 * Integration tests asserting the paper's qualitative results hold in
 * this reproduction: who wins on which benchmark class, accuracy
 * ordering, and the storage hierarchy of Table III.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "sim/experiment.hh"
#include "trace/loop_annotator.hh"
#include "workloads/registry.hh"

namespace cbws
{
namespace
{

SimResult
runOne(const std::string &workload, const std::string &scheme,
       std::uint64_t insts = 40000)
{
    auto w = findWorkload(workload);
    EXPECT_NE(w, nullptr);
    SystemConfig cfg;
    cfg.scheme = scheme;
    WorkloadParams params;
    params.maxInstructions = insts;
    return simulateWorkload(*w, cfg, params, SimProbes(), insts / 4);
}

TEST(Integration, CbwsBeatsSmsOnBlockStructuredKernels)
{
    // Paper Section VII-A/C: sgemm, stencil, lu-ncb are CBWS wins.
    for (const char *name :
         {"sgemm-medium", "stencil-default", "lu-ncb-simlarge"}) {
        SimResult sms = runOne(name, "SMS");
        SimResult cbws = runOne(name, "CBWS");
        EXPECT_GT(cbws.ipc(), sms.ipc() * 1.3)
            << name << " CBWS should clearly beat SMS";
        EXPECT_LT(cbws.mpki(), sms.mpki())
            << name << " CBWS should cut MPKI below SMS";
    }
}

TEST(Integration, SgemmHeadlineSpeedup)
{
    // The paper's best case: ~4x on sgemm for CBWS+SMS over SMS.
    SimResult sms = runOne("sgemm-medium", "SMS");
    SimResult hybrid = runOne("sgemm-medium", "CBWS+SMS");
    EXPECT_GT(hybrid.ipc() / sms.ipc(), 2.5);
}

TEST(Integration, SmsWinsOnDataDependentKernels)
{
    // histo's histogram update is input-data dependent: standalone
    // CBWS cannot predict it (Fig. 16 discussion).
    SimResult sms = runOne("histo-large", "SMS");
    SimResult cbws = runOne("histo-large", "CBWS");
    EXPECT_GT(sms.ipc(), cbws.ipc() * 1.2);
}

TEST(Integration, HybridFallsBackGracefully)
{
    // Where CBWS fails, CBWS+SMS must track SMS closely (the "best
    // of both worlds" claim).
    for (const char *name : {"histo-large", "450.soplex-ref"}) {
        SimResult sms = runOne(name, "SMS");
        SimResult hybrid = runOne(name, "CBWS+SMS");
        EXPECT_GT(hybrid.ipc(), sms.ipc() * 0.9) << name;
    }
}

TEST(Integration, HybridNeverFarBelowStandaloneCbws)
{
    for (const char *name : {"stencil-default", "radix-simlarge"}) {
        SimResult cbws = runOne(name, "CBWS");
        SimResult hybrid = runOne(name, "CBWS+SMS");
        EXPECT_GT(hybrid.ipc(), cbws.ipc() * 0.9) << name;
    }
}

TEST(Integration, CbwsAccuracyBest)
{
    // Fig. 13: CBWS has the fewest wrong prefetches of the real
    // prefetchers on memory-intensive workloads.
    const char *name = "stencil-default";
    SimResult cbws = runOne(name, "CBWS");
    SimResult ghb = runOne(name, "GHB-PC/DC");
    EXPECT_LE(cbws.wrongFraction(), ghb.wrongFraction() + 0.02);
    EXPECT_LT(cbws.wrongFraction(), 0.15);
}

TEST(Integration, PrefetchingNeverBreaksCorrectnessMetrics)
{
    // Same trace, all prefetchers: committed instructions identical,
    // and every scheme's timing is >= the zero-latency bound.
    auto w = findWorkload("radix-simlarge");
    WorkloadParams params;
    params.maxInstructions = 20000;
    Trace t;
    w->generate(t, params);
    for (const std::string &scheme : allSchemeNames()) {
        SystemConfig cfg;
        cfg.scheme = scheme;
        SimResult r = simulate(t, cfg, params.maxInstructions);
        EXPECT_EQ(r.core.instructions, params.maxInstructions)
            << scheme;
        EXPECT_GE(r.core.cycles, params.maxInstructions / 4)
            << scheme;
    }
}

TEST(Integration, StorageHierarchyMatchesTable3)
{
    SystemConfig cfg;
    auto storage = [&cfg](const std::string &scheme) {
        cfg.scheme = scheme;
        return makePrefetcher(cfg)->storageBits();
    };
    const auto cbws = storage("CBWS");
    const auto stride = storage("Stride");
    const auto gdc = storage("GHB-G/DC");
    const auto pcdc = storage("GHB-PC/DC");
    const auto sms = storage("SMS");
    // CBWS < 1 KB, smallest of all; SMS is the largest (5 KB).
    EXPECT_LT(cbws, 8192u);
    EXPECT_LT(cbws, stride);
    EXPECT_LT(cbws, gdc);
    EXPECT_LT(stride, pcdc);
    EXPECT_LT(pcdc, sms);
}

TEST(Integration, LoopFractionHighOnMiBenchmarks)
{
    // Fig. 1: on average >70% of MI benchmark runtime is in tight
    // innermost loops.
    double sum = 0.0;
    int n = 0;
    for (const char *name :
         {"stencil-default", "sgemm-medium", "462.libquantum-ref",
          "radix-simlarge"}) {
        SimResult r = runOne(name, "No-Prefetch", 20000);
        sum += r.core.loopFraction();
        ++n;
    }
    EXPECT_GT(sum / n, 0.7);
}

TEST(Integration, HeadlineReproduces)
{
    // The paper's headline: CBWS+SMS outperforms SMS by ~1.31x
    // (geomean) on the memory-intensive group. At a reduced test
    // budget the measured geomean is somewhat noisy, so guard a
    // conservative bound.
    SystemConfig cfg;
    auto matrix =
        runMatrix(memoryIntensiveWorkloads(),
                  {"SMS", "CBWS+SMS"},
                  cfg, 50000);
    double log_sum = 0.0;
    for (std::size_t r = 0; r < matrix.rows.size(); ++r) {
        const double ratio =
            matrix.result(r, "CBWS+SMS").ipc() /
            matrix.result(r, "SMS").ipc();
        log_sum += std::log(ratio);
    }
    const double geomean =
        std::exp(log_sum / matrix.rows.size());
    EXPECT_GT(geomean, 1.15);
    EXPECT_LT(geomean, 2.0); // sanity upper bound
}

TEST(Integration, AnnotatorMatchesExplicitMarkersOnLoopKernel)
{
    // Strip the kernel's own markers from a trace, re-annotate with
    // the automatic detector, and verify CBWS performs comparably:
    // the LLVM-pass substitution argument of DESIGN.md.
    auto w = findWorkload("462.libquantum-ref");
    WorkloadParams params;
    params.maxInstructions = 30000;
    Trace annotated;
    w->generate(annotated, params);

    Trace raw;
    for (const auto &rec : annotated)
        if (!isBlockMarker(rec.cls))
            raw.append(rec);
    LoopAnnotator ann;
    Trace reannotated = ann.annotate(raw);
    ASSERT_GE(ann.loops().size(), 1u);

    SystemConfig cfg;
    cfg.scheme = "CBWS";
    SimResult manual = simulate(annotated, cfg, 25000);
    SimResult automatic = simulate(reannotated, cfg, 25000);
    EXPECT_NEAR(automatic.ipc(), manual.ipc(),
                manual.ipc() * 0.15);
    EXPECT_LT(automatic.mpki(), 5.0);
}

} // anonymous namespace
} // namespace cbws
