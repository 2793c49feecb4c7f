/**
 * @file
 * Tournament harness: the ranked zoo must be a deterministic pure
 * function of (workloads, options) — byte-identical leaderboard and
 * JSON at any job count — with a sane leaderboard (No-Prefetch
 * scores 1.0, ranks dense, scores sorted) and non-degenerate zoo
 * schemes (each extension prefetcher actually issues and fills).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "prefetch/registry.hh"
#include "sim/simulator.hh"
#include "sim/tournament.hh"
#include "workloads/registry.hh"

namespace cbws
{
namespace
{

/** A tournament small enough to race inside a unit test. */
std::vector<WorkloadPtr>
smallField()
{
    std::vector<WorkloadPtr> workloads = memoryIntensiveWorkloads();
    workloads.resize(3);
    return workloads;
}

TournamentOptions
smallOptions()
{
    TournamentOptions options;
    options.schemes = {"Stride", "CBWS+SMS", "Multistride",
                       "Pangloss"};
    options.coreCounts = {1, 2};
    options.insts = 6000;
    return options;
}

TEST(Tournament, ByteIdenticalAcrossJobCounts)
{
    TournamentOptions serial = smallOptions();
    serial.matrix.jobs = 1;
    TournamentOptions threaded = smallOptions();
    threaded.matrix.jobs = 8;

    const auto workloads = smallField();
    const TournamentResult a = runTournament(workloads, serial);
    const TournamentResult b = runTournament(workloads, threaded);

    EXPECT_EQ(leaderboardTable(a), leaderboardTable(b));
    // Provenance off: the JSON must compare across the two runs even
    // if the test binary were rebuilt in between.
    EXPECT_EQ(tournamentJson(a, /*provenance=*/false),
              tournamentJson(b, /*provenance=*/false));
}

TEST(Tournament, LeaderboardRanksAreDenseAndSorted)
{
    const TournamentResult result =
        runTournament(smallField(), smallOptions());

    // The baseline is always raced, even though smallOptions() does
    // not list it, and its speedup over itself is exactly 1.
    ASSERT_EQ(result.schemes.size(), 5u);
    EXPECT_EQ(result.schemes.front(), "No-Prefetch");
    ASSERT_EQ(result.leaderboard.size(), result.schemes.size());

    bool saw_baseline = false;
    for (std::size_t i = 0; i < result.leaderboard.size(); ++i) {
        const TournamentEntry &entry = result.leaderboard[i];
        EXPECT_EQ(entry.rank, i + 1);
        EXPECT_GT(entry.score, 0.0) << entry.scheme;
        if (i > 0) {
            EXPECT_LE(entry.score, result.leaderboard[i - 1].score)
                << entry.scheme;
        }
        if (entry.scheme == "No-Prefetch") {
            saw_baseline = true;
            EXPECT_DOUBLE_EQ(entry.score, 1.0);
            EXPECT_EQ(entry.storageBits, 0u);
        }
    }
    EXPECT_TRUE(saw_baseline);
}

TEST(Tournament, CellsCoverEverySchemeSuiteAndCoreCount)
{
    const auto workloads = smallField();
    const TournamentResult result =
        runTournament(workloads, smallOptions());

    ASSERT_FALSE(result.suites.empty());
    // Every (scheme, suite, cores) combination gets exactly one cell.
    EXPECT_EQ(result.cells.size(), result.schemes.size() *
                                       result.suites.size() *
                                       result.coreCounts.size());
    std::uint64_t rows = 0;
    for (const TournamentCell &cell : result.cells) {
        EXPECT_GT(cell.workloads, 0u)
            << cell.scheme << "/" << cell.suite;
        EXPECT_GT(cell.speedup, 0.0)
            << cell.scheme << "/" << cell.suite;
        rows += cell.workloads;
    }
    EXPECT_EQ(rows, workloads.size() * result.schemes.size() *
                        result.coreCounts.size());
}

TEST(Tournament, JsonCarriesSchemaVersionAndNoProvenanceWhenOff)
{
    const TournamentResult result =
        runTournament(smallField(), smallOptions());
    const std::string with = tournamentJson(result);
    const std::string without =
        tournamentJson(result, /*provenance=*/false);

    for (const char *field :
         {"\"schema_version\"", "\"bench\":\"tournament\"",
          "\"core_counts\"", "\"leaderboard\"", "\"cells\"",
          "\"No-Prefetch\""}) {
        EXPECT_NE(with.find(field), std::string::npos) << field;
        EXPECT_NE(without.find(field), std::string::npos) << field;
    }
    EXPECT_NE(with.find("\"provenance\""), std::string::npos);
    EXPECT_EQ(without.find("\"provenance\""), std::string::npos);
}

TEST(Tournament, UnknownSchemeOrBadOptionDiesBeforeRacing)
{
    TournamentOptions options = smallOptions();
    options.schemes = {"warp-engine"};
    EXPECT_DEATH(runTournament(smallField(), options), "warp-engine");

    options = smallOptions();
    options.config.pfOpts = {"not-a-key=1"};
    EXPECT_DEATH(runTournament(smallField(), options), "not-a-key");
}

TEST(Tournament, ZooSchemesAreNonDegenerate)
{
    // Each extension prefetcher must actually participate: issue
    // prefetches, fill lines, and land at least one timely hit on
    // a stride-friendly kernel.
    const auto workloads = memoryIntensiveWorkloads();
    WorkloadParams params;
    params.maxInstructions = 24000;
    for (const char *scheme :
         {"Multistride", "Pangloss", "Pythia"}) {
        SystemConfig config;
        config.scheme = scheme;
        const SimResult r =
            simulateWorkload(*workloads.front(), config, params);
        const PrefetchLifecycle life = r.mem.pfLifeTotal();
        EXPECT_GT(life.issued, 0u) << scheme;
        EXPECT_GT(life.filled, 0u) << scheme;
        EXPECT_GT(life.demandHitTimely, 0u) << scheme;
        EXPECT_GT(r.prefetcherStorageBits, 0u) << scheme;
    }
}

TEST(Tournament, DbmsFamilyStaysHardForCbws)
{
    // The "where CBWS breaks" family must keep stressing the L2 under
    // every scheme, and some scheme outside the CBWS family must beat
    // standalone CBWS somewhere: a run where CBWS wins everywhere
    // means the kernels degenerated into loop nests.
    TournamentOptions options;
    options.coreCounts = {1};
    options.insts = 20000;
    const TournamentResult result =
        runTournament(dbmsWorkloads(), options);

    ASSERT_EQ(result.matrices.size(), 1u);
    for (const WorkloadRow &row : result.matrices[0].rows) {
        for (std::size_t k = 0; k < row.byPrefetcher.size(); ++k) {
            EXPECT_GT(row.byPrefetcher[k].mem.llcDemandMisses, 0u)
                << row.workload << "/" << result.schemes[k];
        }
    }

    const std::vector<KernelVerdict> verdicts =
        kernelVerdicts(result, "DBMS");
    EXPECT_EQ(verdicts.size(), dbmsWorkloads().size());
    bool beaten = false;
    for (const KernelVerdict &verdict : verdicts)
        beaten = beaten || verdict.cbwsBeaten;
    EXPECT_TRUE(beaten) << "no DBMS kernel where a scheme outside "
                           "the CBWS family beats CBWS";
}

} // anonymous namespace
} // namespace cbws
