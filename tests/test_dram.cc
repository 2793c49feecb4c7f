/**
 * @file
 * DRAM backend subsystem: registry round-trip, the `fixed` backend's
 * bit-identity with the legacy flat formula, the `ddr` backend's
 * timing invariants (row hit < row miss, tFAW window, refresh
 * blackouts, write-drain, prefetch deferral, per-bank monotone
 * responses), and matrix-level determinism of `ddr` runs across job
 * counts and checkpoint resume.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "mem/dram/backend.hh"
#include "mem/dram/ddr.hh"
#include "mem/hierarchy.hh"
#include "sim/checkpoint.hh"
#include "sim/experiment.hh"
#include "workloads/registry.hh"

namespace cbws
{
namespace
{

HierarchyParams
ddrParams()
{
    HierarchyParams p;
    p.dramBackend = "ddr";
    return p;
}

DramRequest
demand(LineAddr line, Cycle arrival)
{
    return DramRequest{line, arrival, false, PfSource::Unknown};
}

DramRequest
prefetch(LineAddr line, Cycle arrival)
{
    return DramRequest{line, arrival, true, PfSource::Cbws};
}

// ---------------------------------------------------------------
// Registry
// ---------------------------------------------------------------

TEST(DramRegistry, BuiltinsAreRegistered)
{
    EXPECT_TRUE(dramBackendRegistry().contains("fixed"));
    EXPECT_TRUE(dramBackendRegistry().contains("ddr"));
    EXPECT_TRUE(dramBackendRegistry().contains("DDR"))
        << "lookup must be case-insensitive";

    const auto names = dramBackendRegistry().names();
    EXPECT_NE(std::find(names.begin(), names.end(), "fixed"),
              names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "ddr"),
              names.end());
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()))
        << "`--dram help` lists the table in name order";
    EXPECT_FALSE(dramBackendRegistry().describe("ddr").empty());
}

TEST(DramRegistry, CreateRoundTripsAndUnknownNamesAreListed)
{
    HierarchyParams p;
    auto fixed = dramBackendRegistry().create("Fixed", p);
    ASSERT_TRUE(fixed.ok());
    EXPECT_STREQ(fixed.value()->name(), "fixed");

    auto ddr = dramBackendRegistry().create("ddr", ddrParams());
    ASSERT_TRUE(ddr.ok());
    EXPECT_STREQ(ddr.value()->name(), "ddr");

    auto missing = dramBackendRegistry().create("hbm", p);
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.code(), Errc::NotFound);
    EXPECT_NE(missing.error().message.find("ddr"),
              std::string::npos)
        << "the error must list the registered backends";
}

// ---------------------------------------------------------------
// fixed: bit-for-bit the legacy flat model
// ---------------------------------------------------------------

TEST(FixedDram, MatchesLegacyFormulaWithoutThrottle)
{
    HierarchyParams p; // Table II: 300-cycle flat latency
    auto b = dramBackendRegistry().create("fixed", p);
    ASSERT_TRUE(b.ok());
    for (Cycle t : {Cycle(0), Cycle(7), Cycle(5), Cycle(1000)}) {
        EXPECT_EQ(b.value()->read(demand(t, t)),
                  t + p.dramLatency);
    }
}

// ---------------------------------------------------------------
// ddr: timing invariants
// ---------------------------------------------------------------

/** Line addresses decoding to (bank, row) under 1-channel default
 *  geometry: consecutive lines share a row; rows stride banks. */
LineAddr
lineAt(const DdrParams &g, std::uint64_t bank, std::uint64_t row,
       std::uint64_t col = 0)
{
    return (row * g.banksPerChannel() + bank) * g.linesPerRow() +
           col;
}

TEST(DdrDram, RowHitIsFasterThanRowMissIsFasterThanNothing)
{
    HierarchyParams p = ddrParams();
    p.ddr.tREFI = 0; // isolate the row-buffer path
    DdrBackend b(p);
    const DdrParams &g = b.timing();

    // Cold access opens (bank 0, row 0).
    const Cycle c0 = b.read(demand(lineAt(g, 0, 0, 0), 0));
    const Cycle closed_latency = c0;
    EXPECT_EQ(b.stats().rowClosed, 1u);

    // Long after it drained: same row, different column -> row hit.
    const Cycle t1 = c0 + 10000;
    const Cycle hit_latency =
        b.read(demand(lineAt(g, 0, 0, 1), t1)) - t1;
    EXPECT_EQ(b.stats().rowHits, 1u);

    // Again idle: same bank, conflicting row -> row miss (PRE+ACT).
    const Cycle t2 = t1 + 20000;
    const Cycle miss_latency =
        b.read(demand(lineAt(g, 0, 1, 0), t2)) - t2;
    EXPECT_EQ(b.stats().rowMisses, 1u);

    EXPECT_LT(hit_latency, closed_latency);
    EXPECT_LT(closed_latency, miss_latency);
    EXPECT_EQ(miss_latency - closed_latency, g.tRP)
        << "a conflict pays exactly the extra precharge";
}

TEST(DdrDram, TfawNeverAdmitsAFifthActivateInTheWindow)
{
    HierarchyParams p = ddrParams();
    p.ddr.tREFI = 0;
    p.ddr.tFAW = 100000; // make a tFAW stall unmistakable
    DdrBackend b(p);
    const DdrParams &g = b.timing();

    // Five cold activates to five banks of rank 0, same arrival.
    Cycle completion[5];
    for (std::uint64_t i = 0; i < 5; ++i)
        completion[i] = b.read(demand(lineAt(g, i, 0), 0));

    EXPECT_EQ(b.stats().activates, 5u);
    EXPECT_EQ(b.stats().fawStalls, 1u);
    // The first four proceed on bank/bus timing alone...
    EXPECT_LT(completion[3], Cycle(g.tFAW));
    // ...the fifth waits for the window opened by the first ACT.
    EXPECT_GE(completion[4], Cycle(g.tFAW));
}

TEST(DdrDram, RefreshBlackoutDelaysRequestsAndClosesRows)
{
    HierarchyParams p = ddrParams();
    DdrBackend b(p);
    const DdrParams &g = b.timing();
    ASSERT_GT(g.tREFI, 0u);

    // Open a row well before the first refresh.
    const Cycle c0 = b.read(demand(lineAt(g, 0, 0, 0), 0));
    ASSERT_LT(c0, Cycle(g.tREFI));

    // Arrive just inside the first blackout window.
    const Cycle in_blackout = g.tREFI + 1;
    const Cycle c1 = b.read(demand(lineAt(g, 0, 0, 1), in_blackout));
    EXPECT_EQ(b.stats().refreshStalls, 1u);
    EXPECT_GE(c1, Cycle(g.tREFI + g.tRFC));
    // Refresh precharges every bank: the re-access is not a row hit.
    EXPECT_EQ(b.stats().rowHits, 0u);
    EXPECT_EQ(b.stats().rowClosed, 2u);
}

TEST(DdrDram, PrefetchesDeferUnderQueuePressureDemandsDoNot)
{
    HierarchyParams p = ddrParams();
    p.ddr.tREFI = 0;
    p.ddr.prefetchDeferThreshold = 1;
    DdrBackend b(p);
    const DdrParams &g = b.timing();

    // One outstanding demand...
    const Cycle d0 = b.read(demand(lineAt(g, 0, 0, 0), 0));
    // ...a second demand is admitted immediately (no deferral)...
    b.read(demand(lineAt(g, 1, 0, 0), 1));
    EXPECT_EQ(b.stats().prefetchesDeferred, 0u);

    // ...but a prefetch under the same pressure waits out the queue.
    const Cycle pf = b.read(prefetch(lineAt(g, 2, 0, 0), 2));
    EXPECT_EQ(b.stats().prefetchesDeferred, 1u);
    EXPECT_GT(b.stats().deferralCycles, 0u);
    EXPECT_GT(pf, d0);

    // With the queue drained, prefetches are not penalised.
    const Cycle idle = pf + 50000;
    const std::uint64_t deferred = b.stats().prefetchesDeferred;
    b.read(prefetch(lineAt(g, 3, 0, 0), idle));
    EXPECT_EQ(b.stats().prefetchesDeferred, deferred);
}

TEST(DdrDram, WriteDrainBurstDelaysConcurrentReads)
{
    HierarchyParams p = ddrParams();
    p.ddr.tREFI = 0;
    p.ddr.writeHighWatermark = 2;
    p.ddr.writeLowWatermark = 0;

    // Reference: the read alone on an idle backend.
    DdrBackend quiet(p);
    const Cycle alone =
        quiet.read(demand(lineAt(quiet.timing(), 0, 0), 5));

    // Same read right after a drain burst of two writebacks.
    DdrBackend busy(p);
    const DdrParams &g = busy.timing();
    busy.write(lineAt(g, 1, 3), 0);
    busy.write(lineAt(g, 2, 4), 0);
    EXPECT_EQ(busy.stats().writeDrains, 1u);
    EXPECT_EQ(busy.stats().writes, 2u);
    const Cycle contended = busy.read(demand(lineAt(g, 0, 0), 5));
    EXPECT_GT(contended, alone);
}

TEST(DdrDram, ResponsesAreMonotonePerBankAndDeterministic)
{
    HierarchyParams p = ddrParams();
    DdrBackend a(p), b(p);
    const DdrParams &g = a.timing();

    // A deterministic, bursty request stream whose arrivals regress
    // by a few cycles now and then (prefetch vs. demand skew).
    std::uint64_t lcg = 12345;
    auto next = [&lcg] {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        return lcg >> 33;
    };
    std::vector<Cycle> last(g.totalBanks(), 0);
    Cycle base = 0;
    for (int i = 0; i < 2000; ++i) {
        base += next() % 40;
        const Cycle arrival =
            base >= 3 && next() % 4 == 0 ? base - 3 : base;
        const LineAddr line =
            lineAt(g, next() % g.banksPerChannel(), next() % 8,
                   next() % g.linesPerRow());
        const bool pf = next() % 3 == 0;
        const DramRequest req{line, arrival, pf,
                              pf ? PfSource::Sms
                                 : PfSource::Unknown};
        const Cycle got = a.read(req);
        EXPECT_EQ(got, b.read(req))
            << "two identically-fed backends diverged at " << i;
        ASSERT_GE(got, arrival);

        // Recompute the bank the same way the backend decodes it.
        const std::uint64_t bank =
            (line / g.linesPerRow()) % g.banksPerChannel();
        EXPECT_GE(got, last[bank]) << "bank " << bank
                                   << " response regressed at " << i;
        last[bank] = got;

        if (next() % 5 == 0)
            a.write(line + 1, base), b.write(line + 1, base);
    }
    EXPECT_EQ(a.stats().reads, 2000u);
    EXPECT_TRUE(a.stats() == b.stats());
}

TEST(DdrDram, ResetStatsZeroesCountersButKeepsOpenRows)
{
    HierarchyParams p = ddrParams();
    p.ddr.tREFI = 0; // no refresh closes the row in between
    DdrBackend b(p);
    const DdrParams &g = b.timing();
    const Cycle c0 = b.read(demand(lineAt(g, 0, 0, 0), 0));
    b.resetStats();
    EXPECT_TRUE(b.stats() == DramStats());

    // The row opened before the reset is still open after it.
    b.read(demand(lineAt(g, 0, 0, 1), c0 + 10000));
    EXPECT_EQ(b.stats().reads, 1u);
    EXPECT_EQ(b.stats().rowHits, 1u);
    EXPECT_EQ(b.stats().rowClosed, 0u);
}

// ---------------------------------------------------------------
// Hierarchy integration + matrix determinism
// ---------------------------------------------------------------

TEST(DdrHierarchy, ColdMissLatencyComposesThroughTheBackend)
{
    Hierarchy mem(ddrParams());
    const auto &p = mem.params();
    auto out = mem.load(0x10000, 0);
    ASSERT_TRUE(out.ok);
    // frontend + ACT+CAS + tCL + burst + backend, plus the cache
    // levels on either side.
    const Cycle dram = p.ddr.frontendLatency + p.ddr.tRCD +
                       p.ddr.tCL + p.ddr.tBURST +
                       p.ddr.backendLatency;
    EXPECT_EQ(out.readyAt, p.l1d.latency + p.l2.latency + dram +
                               p.l1d.latency);
    EXPECT_EQ(mem.stats().dram.reads, 1u);
    EXPECT_STREQ(mem.dram().name(), "ddr");
}

TEST(DdrHierarchy, UnknownBackendNamePanics)
{
    HierarchyParams p;
    p.dramBackend = "no-such-backend";
    EXPECT_DEATH({ Hierarchy mem(p); }, "no DRAM backend");
}

TEST(DdrFingerprint, ConfigTagSeparatesBackends)
{
    const std::vector<std::string> ws{"a"}, ps{"x"};
    const auto untagged = checkpointFingerprint(ws, ps);
    const auto fixed = checkpointFingerprint(ws, ps, "fixed");
    const auto ddr = checkpointFingerprint(ws, ps, "ddr");
    EXPECT_NE(fixed, ddr);
    EXPECT_NE(untagged, fixed);
    EXPECT_NE(untagged, ddr);
    EXPECT_EQ(ddr, checkpointFingerprint(ws, ps, "ddr"));
}

class DdrMatrixTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        for (const char *name : {"fft-simlarge", "stencil-default"}) {
            auto w = findWorkload(name);
            ASSERT_NE(w, nullptr) << name;
            workloads_.push_back(std::move(w));
        }
        kinds_ = {"CBWS", "SMS"};
        char tmpl[] = "/tmp/cbws-dram-XXXXXX";
        ASSERT_NE(::mkdtemp(tmpl), nullptr);
        dir_ = tmpl;
    }

    void
    TearDown() override
    {
        const std::string cmd = "rm -rf '" + dir_ + "'";
        if (std::system(cmd.c_str()) != 0)
            ADD_FAILURE() << "cleanup failed: " << cmd;
    }

    ExperimentMatrix
    run(unsigned jobs, const std::string &checkpoint = "")
    {
        MatrixOptions options;
        options.jobs = jobs;
        options.checkpointPath = checkpoint;
        SystemConfig config;
        config.mem.dramBackend = "ddr";
        return runMatrix(workloads_, kinds_, config, 8000, 42,
                         options);
    }

    /** Exact equality of every field of every cell: what the JSON
     *  report and the checkpoint line are both derived from. */
    static ::testing::AssertionResult
    matricesIdentical(const ExperimentMatrix &a,
                      const ExperimentMatrix &b)
    {
        if (a.rows.size() != b.rows.size())
            return ::testing::AssertionFailure() << "row count";
        for (std::size_t r = 0; r < a.rows.size(); ++r) {
            if (a.rows[r].byPrefetcher != b.rows[r].byPrefetcher)
                return ::testing::AssertionFailure()
                       << a.rows[r].workload << ": cells differ";
        }
        return ::testing::AssertionSuccess();
    }

    std::vector<WorkloadPtr> workloads_;
    std::vector<std::string> kinds_;
    std::string dir_;
};

TEST_F(DdrMatrixTest, ResultsAreByteIdenticalAcrossJobCounts)
{
    const ExperimentMatrix serial = run(1);
    const ExperimentMatrix parallel = run(8);
    EXPECT_TRUE(matricesIdentical(serial, parallel));

    // The run exercised the new model for real.
    const auto &cell = serial.rows[0].byPrefetcher[0];
    EXPECT_EQ(cell.dramBackend, "ddr");
    EXPECT_GT(cell.mem.dram.reads, 0u);
    EXPECT_GT(cell.mem.dram.rowHitRate(), 0.0);
}

TEST_F(DdrMatrixTest, PartialCheckpointResumesByteIdentically)
{
    const ExperimentMatrix reference = run(1);

    const std::string path = dir_ + "/ddr.ckpt";
    const ExperimentMatrix full = run(1, path);
    EXPECT_TRUE(matricesIdentical(reference, full));

    // Truncate to header + provenance + 1 cell: the on-disk state
    // a SIGKILL after the first completed cell leaves behind.
    std::vector<std::string> lines;
    {
        std::ifstream in(path);
        std::string line;
        while (std::getline(in, line))
            lines.push_back(line);
    }
    ASSERT_EQ(lines.size(), 2u + 4u);
    {
        std::ofstream out(path, std::ios::trunc);
        out << lines[0] << "\n" << lines[1] << "\n"
            << lines[2] << "\n";
    }

    for (unsigned jobs : {1u, 8u}) {
        // Re-truncate for each resume so both job counts start from
        // the same partial file.
        const ExperimentMatrix resumed = run(jobs, path);
        EXPECT_TRUE(matricesIdentical(reference, resumed))
            << "jobs=" << jobs;
        std::ofstream out(path, std::ios::trunc);
        out << lines[0] << "\n" << lines[1] << "\n"
            << lines[2] << "\n";
    }
}

} // anonymous namespace
} // namespace cbws
