/**
 * @file
 * Determinism of the parallel experiment runner: runMatrix must be
 * bit-identical for any job count, across every prefetcher kind, keep
 * at most one trace per worker resident, give the same matrix over a
 * trace cache that cannot be written or whose entries are damaged,
 * and the O(1) result() lookup must agree with the row layout.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
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

/** Every cell of @p a equals the same cell of @p b. */
::testing::AssertionResult
matricesIdentical(const ExperimentMatrix &a, const ExperimentMatrix &b)
{
    if (a.rows.size() != b.rows.size())
        return ::testing::AssertionFailure() << "row count";
    for (std::size_t r = 0; r < a.rows.size(); ++r)
        if (a.rows[r].byPrefetcher != b.rows[r].byPrefetcher)
            return ::testing::AssertionFailure()
                   << a.rows[r].workload << ": cells differ";
    return ::testing::AssertionSuccess();
}

/** A small matrix at four jobs over @p cache (none when null). */
ExperimentMatrix
runCached(TraceCache *cache)
{
    const std::vector<std::string> kinds = {"No-Prefetch", "Stride",
                                            "CBWS", "SMS"};
    MatrixOptions options;
    options.jobs = 4;
    options.traceCache = cache;
    return runMatrix(sampleWorkloads(), kinds, SystemConfig(), 8000, 42,
                     options);
}

TEST(ParallelMatrix, UnwritableTraceCacheLeavesResultsUnchanged)
{
    // The cache directory's path names a regular file, so no entry
    // can be created: every store fails and the cache stays cold.
    char tmpl[] = "/tmp/cbws-not-a-dir-XXXXXX";
    const int fd = ::mkstemp(tmpl);
    ASSERT_GE(fd, 0);
    ::close(fd);
    const std::string path = tmpl;
    TraceCache cache(path);

    EXPECT_TRUE(matricesIdentical(runCached(nullptr), runCached(&cache)));
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), sampleWorkloads().size());
    EXPECT_TRUE(std::filesystem::is_regular_file(path));
    EXPECT_EQ(std::filesystem::file_size(path), 0u);
    std::filesystem::remove(path);
}

TEST(ParallelMatrix, TruncatedTraceCacheEntriesAreResynthesised)
{
    char tmpl[] = "/tmp/cbws-damaged-cache-XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    const std::string dir = tmpl;
    const ExperimentMatrix reference = runCached(nullptr);
    TraceCache warm(dir);
    runCached(&warm);

    // Cut every entry in half: each becomes a miss, is synthesised
    // again and is stored again.
    std::size_t entries = 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        std::filesystem::resize_file(entry.path(), entry.file_size() / 2);
        ++entries;
    }
    ASSERT_EQ(entries, sampleWorkloads().size());
    TraceCache damaged(dir);
    EXPECT_TRUE(matricesIdentical(reference, runCached(&damaged)));
    EXPECT_EQ(damaged.misses(), entries);
    EXPECT_EQ(damaged.hits(), 0u);

    // The rerun repaired every entry: a third run only hits.
    TraceCache repaired(dir);
    EXPECT_TRUE(matricesIdentical(reference, runCached(&repaired)));
    EXPECT_EQ(repaired.misses(), 0u);
    EXPECT_EQ(repaired.hits(), entries);
    std::filesystem::remove_all(dir);
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
