/**
 * @file
 * Determinism of the parallel experiment runner: runMatrix must be
 * bit-identical for any job count, across every prefetcher kind, keep
 * at most one trace per worker resident, and the O(1) result() lookup
 * must agree with the row layout.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <unistd.h>

#include "sim/experiment.hh"
#include "workloads/registry.hh"

namespace cbws
{
namespace
{

std::vector<WorkloadPtr>
sampleWorkloads()
{
    // One block-structured, one data-dependent, one low-MPKI kernel
    // keeps the run cheap while exercising very different simulator
    // paths.
    std::vector<WorkloadPtr> ws;
    for (const char *name :
         {"sgemm-medium", "histo-large", "fft-simlarge"}) {
        auto w = findWorkload(name);
        EXPECT_NE(w, nullptr) << name;
        if (w)
            ws.push_back(std::move(w));
    }
    return ws;
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

TEST(ParallelMatrix, FourJobsBitIdenticalToSerialAcrossAllKinds)
{
    const auto ws = sampleWorkloads();
    ASSERT_EQ(ws.size(), 3u);
    const auto kinds = allSchemeNames();
    SystemConfig cfg;
    constexpr std::uint64_t insts = 12000;

    MatrixOptions serial;
    serial.jobs = 1;
    const auto m1 = runMatrix(ws, kinds, cfg, insts, 42, serial);

    MatrixOptions parallel;
    parallel.jobs = 4;
    const auto m4 = runMatrix(ws, kinds, cfg, insts, 42, parallel);

    ASSERT_EQ(m1.rows.size(), m4.rows.size());
    for (std::size_t r = 0; r < m1.rows.size(); ++r) {
        ASSERT_EQ(m1.rows[r].byPrefetcher.size(), kinds.size());
        ASSERT_EQ(m4.rows[r].byPrefetcher.size(), kinds.size());
        EXPECT_EQ(m1.rows[r].workload, m4.rows[r].workload);
        EXPECT_EQ(m1.rows[r].memoryIntensive,
                  m4.rows[r].memoryIntensive);
        for (std::size_t k = 0; k < kinds.size(); ++k)
            EXPECT_TRUE(cellsIdentical(m1.rows[r].byPrefetcher[k],
                                       m4.rows[r].byPrefetcher[k]));
    }
}

TEST(ParallelMatrix, MoreJobsThanCellsIsStillIdentical)
{
    std::vector<WorkloadPtr> ws;
    ws.push_back(findWorkload("stencil-default"));
    ASSERT_NE(ws[0], nullptr);
    const std::vector<std::string> kinds = {"CBWS", "SMS"};
    SystemConfig cfg;

    MatrixOptions serial;
    serial.jobs = 1;
    const auto m1 = runMatrix(ws, kinds, cfg, 8000, 42, serial);

    MatrixOptions wide;
    wide.jobs = 16; // far more workers than the 2 cells
    const auto mw = runMatrix(ws, kinds, cfg, 8000, 42, wide);

    for (std::size_t k = 0; k < kinds.size(); ++k)
        EXPECT_TRUE(cellsIdentical(m1.rows[0].byPrefetcher[k],
                                   mw.rows[0].byPrefetcher[k]));
}

TEST(ParallelMatrix, LiveTracesNeverExceedJobs)
{
    // Eight rows of three cells: at four jobs two workers start some
    // rows together, and only one of them may synthesise the trace.
    std::vector<WorkloadPtr> ws;
    for (const char *name :
         {"histo-large", "lbm-long", "mri-q-large", "stencil-default",
          "fft-simlarge", "nw", "radix-simlarge", "sgemm-medium"}) {
        ws.push_back(findWorkload(name));
        ASSERT_NE(ws.back(), nullptr) << name;
    }
    const std::vector<std::string> kinds = {"No-Prefetch", "Stride",
                                            "SMS"};
    SystemConfig cfg;
    constexpr std::uint64_t insts = 4000;

    for (unsigned jobs : {1u, 2u, 4u}) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs));
        char tmpl[] = "/tmp/cbws-live-traces-XXXXXX";
        ASSERT_NE(::mkdtemp(tmpl), nullptr);
        const std::string dir = tmpl;
        TraceCache cache(dir);
        MatrixOptions options;
        options.jobs = jobs;
        options.traceCache = &cache;
        const ExperimentMatrix m =
            runMatrix(ws, kinds, cfg, insts, 42, options);

        EXPECT_GE(m.peakLiveTraces, 1u);
        EXPECT_LE(m.peakLiveTraces, jobs);
        // A fresh cache: every row looked its trace up exactly once,
        // so every row was synthesised exactly once.
        EXPECT_EQ(cache.misses(), ws.size());
        EXPECT_EQ(cache.hits(), 0u);

        const std::string cmd = "rm -rf '" + dir + "'";
        EXPECT_EQ(std::system(cmd.c_str()), 0) << cmd;
    }
}

TEST(ParallelMatrix, ResultLookupAgreesWithRowLayout)
{
    std::vector<WorkloadPtr> ws;
    ws.push_back(findWorkload("fft-simlarge"));
    ASSERT_NE(ws[0], nullptr);
    const auto schemes = allSchemeNames();
    SystemConfig cfg;
    const auto m = runMatrix(ws, schemes, cfg, 8000);

    ASSERT_EQ(m.schemes, schemes);
    for (std::size_t k = 0; k < schemes.size(); ++k)
        EXPECT_EQ(&m.result(0, schemes[k]),
                  &m.rows[0].byPrefetcher[k]);
    // The deprecated enum overload resolves to the same columns.
    EXPECT_EQ(&m.result(0, "SMS"),
              &m.result(0, std::string("SMS")));
}

TEST(ParallelMatrix, ResultLookupIsCaseInsensitive)
{
    // Hand-assembled matrices (as some tests build) resolve by
    // scanning `schemes` with the registry's canon rule.
    ExperimentMatrix m;
    m.schemes = {"SMS", "CBWS"};
    m.rows.resize(1);
    m.rows[0].byPrefetcher.resize(2);
    m.rows[0].byPrefetcher[1].prefetcherStorageBits = 77;
    EXPECT_EQ(m.result(0, std::string("cbws")).prefetcherStorageBits,
              77u);
    EXPECT_EQ(m.column("sms"), 0u);
}

} // anonymous namespace
} // namespace cbws
