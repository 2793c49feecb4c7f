/**
 * @file
 * Prefetcher tournament: every registered scheme raced over every
 * workload family at one or more core counts, ranked into a
 * leaderboard by geomean speedup over the No-Prefetch baseline.
 *
 * The tournament is a thin deterministic aggregation over runMatrix:
 * one matrix per core count (sharing the registry scheme columns),
 * then per-(scheme, suite, cores) lifecycle roll-ups and a ranked
 * per-scheme summary. Everything inherits runMatrix's guarantees —
 * results are bit-identical for any job count and across a
 * checkpoint resume — so the leaderboard text and the JSON artifact
 * are byte-stable too.
 */

#ifndef CBWS_SIM_TOURNAMENT_HH
#define CBWS_SIM_TOURNAMENT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/experiment.hh"

namespace cbws
{

/**
 * Version of the BENCH_tournament.json schema (docs/FORMATS.md).
 * Bump when fields are renamed, removed, or change meaning.
 */
constexpr unsigned TournamentSchemaVersion = 1;

/** Execution knobs of runTournament. */
struct TournamentOptions
{
    /**
     * Registry scheme names to race. Empty (the default) races every
     * registered scheme — the zoo. "No-Prefetch" is always included:
     * it is the speedup baseline.
     */
    std::vector<std::string> schemes;

    /** Core counts raced (a matrix per entry). */
    std::vector<unsigned> coreCounts = {1, 2, 4};

    /** Committed-instruction budget per run (per core). */
    std::uint64_t insts = 120000;

    /** Workload synthesis seed. */
    std::uint64_t seed = 42;

    /** Base system config; carries --pf-opt overrides in pfOpts. */
    SystemConfig config;

    /**
     * runMatrix execution options. A non-empty checkpointPath is
     * suffixed ".c<N>" per core count so the per-matrix fingerprints
     * never collide in one file.
     */
    MatrixOptions matrix;
};

/** Aggregate of one (scheme, workload family, core count) group. */
struct TournamentCell
{
    std::string scheme; ///< canonical registry name
    std::string suite;  ///< workload family (Workload::suite())
    unsigned cores = 1;
    std::uint64_t workloads = 0; ///< rows aggregated into this cell
    /** Geomean IPC speedup over No-Prefetch at the same core count. */
    double speedup = 0.0;
    double accuracy = 0.0;  ///< demand hits / filled
    double coverage = 0.0;  ///< timely hits / (timely hits + misses)
    double pollution = 0.0; ///< evicted unused / filled
    std::uint64_t storageBits = 0; ///< single-core scheme storage
};

/** One ranked leaderboard row (a scheme's overall standing). */
struct TournamentEntry
{
    unsigned rank = 0; ///< 1-based; ties broken by name
    std::string scheme;
    /** Geomean speedup over all (workload, core count) runs. */
    double score = 0.0;
    double accuracy = 0.0;
    double coverage = 0.0;
    double pollution = 0.0;
    std::uint64_t storageBits = 0;
};

/** Everything a tournament produced. */
struct TournamentResult
{
    std::uint64_t insts = 0;
    std::uint64_t seed = 0;
    std::vector<unsigned> coreCounts;
    std::vector<std::string> schemes; ///< canonical, column order
    std::vector<std::string> suites;  ///< first-appearance order
    std::vector<TournamentCell> cells;
    /** Sorted: score descending, then scheme name ascending. */
    std::vector<TournamentEntry> leaderboard;
    /** The runs behind the cells: one matrix per core count (parallel
     *  to coreCounts), with columns in `schemes` order. */
    std::vector<ExperimentMatrix> matrices;
    /** Workload family of each matrix row. */
    std::vector<std::string> rowSuites;
};

/** One workload at one core: every scheme's speedup, and standalone
 *  CBWS against the fastest scheme outside its family. */
struct KernelVerdict
{
    std::string workload;
    /** IPC over No-Prefetch on this workload, parallel to schemes. */
    std::vector<double> speedups;
    /** Fastest scheme outside the CBWS family and the baseline. */
    std::string best;
    double bestSpeedup = 0.0;
    double cbwsSpeedup = 0.0;
    bool cbwsBeaten = false; ///< best strictly faster than CBWS
};

/**
 * Race the schemes: one runMatrix per core count, then roll up. The
 * scheme list is validated (with config.pfOpts) before anything
 * runs; unknown names or bad option strings are fatal, exactly as in
 * runMatrix.
 */
TournamentResult
runTournament(const std::vector<WorkloadPtr> &workloads,
              const TournamentOptions &options = TournamentOptions());

/**
 * One verdict per 1-core row of @p suite, in row order; empty unless
 * the tournament raced 1 core and CBWS. A scheme whose name starts
 * with "CBWS" belongs to the CBWS family: the verdict asks what takes
 * over where CBWS cannot predict.
 */
std::vector<KernelVerdict> kernelVerdicts(const TournamentResult &result,
                                          const std::string &suite);

/** Render the ranked leaderboard as a text table (golden-diffable). */
std::string leaderboardTable(const TournamentResult &result);

/**
 * Serialise the full result as BENCH_tournament.json (schema
 * docs/FORMATS.md). With @p provenance the build stamp (git SHA,
 * compiler, build type) is embedded; leave it off when the artifact
 * must be byte-comparable across builds.
 */
std::string tournamentJson(const TournamentResult &result,
                           bool provenance = true);

} // namespace cbws

#endif // CBWS_SIM_TOURNAMENT_HH
