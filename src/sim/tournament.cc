#include "sim/tournament.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "base/json.hh"
#include "base/logging.hh"
#include "base/table.hh"
#include "base/version.hh"
#include "prefetch/registry.hh"

namespace cbws
{

namespace
{

/** Lifecycle + miss counters accumulated over a group of runs. */
struct Rollup
{
    std::uint64_t filled = 0;
    std::uint64_t demandHits = 0;
    std::uint64_t demandHitTimely = 0;
    std::uint64_t evictedUnused = 0;
    std::uint64_t llcDemandMisses = 0;
    std::uint64_t workloads = 0;
    double logSpeedup = 0.0;   ///< sum of log(ipc / baseline ipc)
    std::uint64_t speedups = 0; ///< runs contributing to the geomean

    void
    addRun(const SimResult &res, const SimResult &baseline)
    {
        const PrefetchLifecycle life = res.mem.pfLifeTotal();
        filled += life.filled;
        demandHits += life.demandHits();
        demandHitTimely += life.demandHitTimely;
        evictedUnused += life.evictedUnused;
        llcDemandMisses += res.mem.llcDemandMisses;
        ++workloads;
        if (res.ipc() > 0 && baseline.ipc() > 0) {
            logSpeedup += std::log(res.ipc() / baseline.ipc());
            ++speedups;
        }
    }

    double
    speedup() const
    {
        return speedups ? std::exp(logSpeedup /
                                   static_cast<double>(speedups))
                        : 0.0;
    }

    double
    accuracy() const
    {
        return filled ? static_cast<double>(demandHits) /
                            static_cast<double>(filled)
                      : 0.0;
    }

    double
    coverage() const
    {
        const std::uint64_t base = demandHitTimely + llcDemandMisses;
        return base ? static_cast<double>(demandHitTimely) /
                          static_cast<double>(base)
                    : 0.0;
    }

    double
    pollution() const
    {
        return filled ? static_cast<double>(evictedUnused) /
                            static_cast<double>(filled)
                      : 0.0;
    }
};

} // anonymous namespace

TournamentResult
runTournament(const std::vector<WorkloadPtr> &workloads,
              const TournamentOptions &options)
{
    TournamentResult result;
    result.insts = options.insts;
    result.seed = options.seed;
    result.coreCounts = options.coreCounts;
    if (result.coreCounts.empty())
        result.coreCounts.push_back(1);

    // Resolve the entrant list: the whole zoo by default, always
    // with the No-Prefetch baseline so speedups are well-defined.
    std::vector<std::string> schemes = options.schemes.empty()
                                           ? zooSchemeNames()
                                           : options.schemes;
    {
        Result<void> valid = prefetcherRegistry().validateOptions(
            schemes, options.config.pfOpts);
        if (!valid.ok())
            fatal("runTournament: %s", valid.error().str().c_str());
    }
    for (auto &name : schemes)
        name = prefetcherRegistry().canonicalName(name);
    const std::string baseline =
        prefetcherRegistry().canonicalName("No-Prefetch");
    if (std::find(schemes.begin(), schemes.end(), baseline) ==
        schemes.end()) {
        schemes.insert(schemes.begin(), baseline);
    }
    result.schemes = schemes;

    // Suite order: first appearance over the workload list, so the
    // report layout is independent of any hash ordering.
    for (const auto &w : workloads) {
        if (std::find(result.suites.begin(), result.suites.end(),
                      w->suite()) == result.suites.end())
            result.suites.push_back(w->suite());
    }
    std::vector<std::string> row_suite;
    row_suite.reserve(workloads.size());
    for (const auto &w : workloads)
        row_suite.push_back(w->suite());

    // One matrix per core count. Checkpoints get a per-matrix file:
    // the fingerprints differ by core count, and one file can only
    // hold one fingerprint.
    std::vector<ExperimentMatrix> matrices;
    matrices.reserve(result.coreCounts.size());
    for (unsigned cores : result.coreCounts) {
        SystemConfig config = options.config;
        config.mem.numCores = cores;
        MatrixOptions mopts = options.matrix;
        if (!mopts.checkpointPath.empty())
            mopts.checkpointPath += ".c" + std::to_string(cores);
        matrices.push_back(runMatrix(workloads, schemes, config,
                                     options.insts, options.seed,
                                     mopts));
    }

    // Roll up per (scheme, suite, cores) and per scheme overall.
    const std::size_t base_col = matrices.empty()
                                     ? 0
                                     : matrices[0].column(baseline);
    std::vector<Rollup> overall(schemes.size());
    for (std::size_t k = 0; k < schemes.size(); ++k) {
        for (std::size_t m = 0; m < matrices.size(); ++m) {
            for (const auto &suite : result.suites) {
                Rollup group;
                for (std::size_t r = 0;
                     r < matrices[m].rows.size(); ++r) {
                    if (row_suite[r] != suite)
                        continue;
                    const auto &row = matrices[m].rows[r];
                    group.addRun(row.byPrefetcher[k],
                                 row.byPrefetcher[base_col]);
                    overall[k].addRun(row.byPrefetcher[k],
                                      row.byPrefetcher[base_col]);
                }
                if (!group.workloads)
                    continue;
                TournamentCell cell;
                cell.scheme = schemes[k];
                cell.suite = suite;
                cell.cores = result.coreCounts[m];
                cell.workloads = group.workloads;
                cell.speedup = group.speedup();
                cell.accuracy = group.accuracy();
                cell.coverage = group.coverage();
                cell.pollution = group.pollution();
                cell.storageBits = matrices[0]
                                       .rows.empty()
                                       ? 0
                                       : matrices[0]
                                             .rows[0]
                                             .byPrefetcher[k]
                                             .prefetcherStorageBits;
                result.cells.push_back(cell);
            }
        }
    }

    result.leaderboard.reserve(schemes.size());
    for (std::size_t k = 0; k < schemes.size(); ++k) {
        TournamentEntry entry;
        entry.scheme = schemes[k];
        entry.score = overall[k].speedup();
        entry.accuracy = overall[k].accuracy();
        entry.coverage = overall[k].coverage();
        entry.pollution = overall[k].pollution();
        entry.storageBits =
            matrices.empty() || matrices[0].rows.empty()
                ? 0
                : matrices[0]
                      .rows[0]
                      .byPrefetcher[k]
                      .prefetcherStorageBits;
        result.leaderboard.push_back(entry);
    }
    std::sort(result.leaderboard.begin(), result.leaderboard.end(),
              [](const TournamentEntry &a, const TournamentEntry &b) {
                  if (a.score != b.score)
                      return a.score > b.score;
                  return a.scheme < b.scheme;
              });
    for (std::size_t i = 0; i < result.leaderboard.size(); ++i)
        result.leaderboard[i].rank = static_cast<unsigned>(i + 1);
    result.matrices = std::move(matrices);
    result.rowSuites = std::move(row_suite);
    return result;
}

std::vector<KernelVerdict>
kernelVerdicts(const TournamentResult &result, const std::string &suite)
{
    std::vector<KernelVerdict> verdicts;
    const auto one = std::find(result.coreCounts.begin(),
                               result.coreCounts.end(), 1u);
    const auto cbws = std::find(
        result.schemes.begin(), result.schemes.end(),
        prefetcherRegistry().canonicalName("CBWS"));
    if (one == result.coreCounts.end() || cbws == result.schemes.end())
        return verdicts;
    const ExperimentMatrix &matrix =
        result.matrices[one - result.coreCounts.begin()];
    const std::size_t base_col = matrix.column("No-Prefetch");
    for (std::size_t r = 0; r < matrix.rows.size(); ++r) {
        if (result.rowSuites[r] != suite)
            continue;
        const WorkloadRow &row = matrix.rows[r];
        const double base_ipc = row.byPrefetcher[base_col].ipc();
        KernelVerdict verdict;
        verdict.workload = row.workload;
        for (std::size_t k = 0; k < matrix.schemes.size(); ++k) {
            const std::string &scheme = matrix.schemes[k];
            const double s = base_ipc > 0
                                 ? row.byPrefetcher[k].ipc() / base_ipc
                                 : 0.0;
            verdict.speedups.push_back(s);
            if (k == base_col || scheme.rfind("CBWS", 0) == 0)
                continue;
            if (verdict.best.empty() || s > verdict.bestSpeedup ||
                (s == verdict.bestSpeedup && scheme < verdict.best)) {
                verdict.best = scheme;
                verdict.bestSpeedup = s;
            }
        }
        verdict.cbwsSpeedup =
            verdict.speedups[cbws - result.schemes.begin()];
        verdict.cbwsBeaten = verdict.bestSpeedup > verdict.cbwsSpeedup;
        verdicts.push_back(verdict);
    }
    return verdicts;
}

std::string
leaderboardTable(const TournamentResult &result)
{
    TextTable t;
    t.header({"rank", "scheme", "score", "accuracy", "coverage",
              "pollution", "storage"});
    for (const auto &e : result.leaderboard) {
        t.row({std::to_string(e.rank), e.scheme,
               TextTable::num(e.score, 3),
               TextTable::num(100.0 * e.accuracy, 1) + "%",
               TextTable::num(100.0 * e.coverage, 1) + "%",
               TextTable::num(100.0 * e.pollution, 1) + "%",
               TextTable::num(static_cast<double>(e.storageBits) /
                                  8.0 / 1024.0,
                              2) +
                   " KB"});
    }
    return t.render();
}

std::string
tournamentJson(const TournamentResult &result, bool provenance)
{
    JsonWriter w;
    w.beginObject();
    w.field("schema_version",
            static_cast<std::uint64_t>(TournamentSchemaVersion));
    w.field("bench", "tournament");
    if (provenance) {
        w.key("provenance");
        writeProvenance(w);
    }
    w.field("instructions_per_run", result.insts);
    w.field("seed", result.seed);
    w.key("core_counts");
    w.beginArray();
    for (unsigned cores : result.coreCounts)
        w.value(static_cast<std::uint64_t>(cores));
    w.endArray();
    w.key("schemes");
    w.beginArray();
    for (const auto &name : result.schemes)
        w.value(name);
    w.endArray();
    w.key("suites");
    w.beginArray();
    for (const auto &suite : result.suites)
        w.value(suite);
    w.endArray();
    w.key("cells");
    w.beginArray();
    for (const auto &cell : result.cells) {
        w.beginObject();
        w.field("scheme", cell.scheme);
        w.field("suite", cell.suite);
        w.field("cores", static_cast<std::uint64_t>(cell.cores));
        w.field("workloads", cell.workloads);
        w.field("speedup", cell.speedup);
        w.field("accuracy", cell.accuracy);
        w.field("coverage", cell.coverage);
        w.field("pollution", cell.pollution);
        w.field("storage_bits", cell.storageBits);
        w.endObject();
    }
    w.endArray();
    w.key("leaderboard");
    w.beginArray();
    for (const auto &e : result.leaderboard) {
        w.beginObject();
        w.field("rank", static_cast<std::uint64_t>(e.rank));
        w.field("scheme", e.scheme);
        w.field("score", e.score);
        w.field("accuracy", e.accuracy);
        w.field("coverage", e.coverage);
        w.field("pollution", e.pollution);
        w.field("storage_bits", e.storageBits);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

} // namespace cbws
