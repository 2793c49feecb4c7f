/**
 * @file
 * Prefetcher tournament: every registered scheme (the zoo, including
 * the extension prefetchers) raced over every workload family at 1,
 * 2 and 4 cores, then ranked by geomean speedup over No-Prefetch.
 *
 * stdout carries the per-family standings, the final leaderboard and
 * the DBMS family kernel by kernel at one core, the "where CBWS
 * breaks" report (golden-diffed by ctest TournamentGolden); the
 * aggregated cells land in BENCH_tournament.json (schema:
 * docs/FORMATS.md) for trend tracking. Both are byte-identical for
 * any --jobs value and across a checkpoint resume.
 */

#include <algorithm>
#include <cstdio>

#include "common.hh"
#include "base/table.hh"
#include "sim/tournament.hh"
#include "workloads/registry.hh"

using namespace cbws;

namespace
{

/**
 * The irregular DBMS kernels at one core: per-kernel speedups, the
 * best scheme outside the CBWS family against standalone CBWS, and
 * the family's cells ranked. Unlike the paper's loop nests, CBWS is
 * expected to lose here, and the report says where.
 */
void
printDbmsSection(const TournamentResult &result)
{
    const std::string suite = "DBMS";
    const std::vector<KernelVerdict> kernels =
        kernelVerdicts(result, suite);
    if (kernels.empty())
        return;

    std::printf("-- 1 core, DBMS: speedup over No-Prefetch per "
                "kernel --\n");
    TextTable speedups;
    std::vector<std::string> header = {"kernel"};
    header.insert(header.end(), result.schemes.begin(),
                  result.schemes.end());
    speedups.header(header);
    for (const KernelVerdict &kernel : kernels) {
        std::vector<std::string> out = {kernel.workload};
        for (double speedup : kernel.speedups)
            out.push_back(TextTable::num(speedup, 2) + "x");
        speedups.row(out);
    }
    std::printf("%s\n", speedups.render().c_str());

    std::printf("-- 1 core, DBMS: best scheme outside the CBWS family "
                "vs CBWS --\n");
    TextTable verdicts;
    verdicts.header({"kernel", "best scheme", "best", "CBWS",
                     "verdict"});
    std::vector<std::string> beaten_on;
    for (const KernelVerdict &kernel : kernels) {
        if (kernel.cbwsBeaten)
            beaten_on.push_back(kernel.workload);
        verdicts.row({kernel.workload, kernel.best,
                      TextTable::num(kernel.bestSpeedup, 2) + "x",
                      TextTable::num(kernel.cbwsSpeedup, 2) + "x",
                      kernel.cbwsBeaten ? "CBWS beaten"
                                        : "CBWS competitive"});
    }
    std::printf("%s\n", verdicts.render().c_str());

    std::printf("-- 1 core, DBMS: scheme aggregates --\n");
    std::vector<TournamentCell> cells;
    for (const TournamentCell &cell : result.cells) {
        if (cell.cores == 1 && cell.suite == suite)
            cells.push_back(cell);
    }
    std::sort(cells.begin(), cells.end(),
              [](const TournamentCell &a, const TournamentCell &b) {
                  if (a.speedup != b.speedup)
                      return a.speedup > b.speedup;
                  return a.scheme < b.scheme;
              });
    TextTable aggregates;
    aggregates.header({"scheme", "geomean", "accuracy", "coverage",
                       "pollution"});
    for (const TournamentCell &cell : cells) {
        aggregates.row({cell.scheme, TextTable::num(cell.speedup, 3),
                        TextTable::num(100.0 * cell.accuracy, 1) + "%",
                        TextTable::num(100.0 * cell.coverage, 1) + "%",
                        TextTable::num(100.0 * cell.pollution, 1) +
                            "%"});
    }
    std::printf("%s\n", aggregates.render().c_str());

    if (beaten_on.empty()) {
        std::printf("CBWS beaten on: (none - the family is not "
                    "doing its job)\n");
    } else {
        std::printf("CBWS beaten on:");
        for (const auto &kernel : beaten_on)
            std::printf(" %s", kernel.c_str());
        std::printf(" (%zu of %zu kernels)\n", beaten_on.size(),
                    kernels.size());
    }
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bench::init(argc, argv);
    const std::uint64_t insts = benchInstructionBudget(60000);
    bench::banner("Prefetcher tournament - the zoo ranked by geomean "
                  "speedup over No-Prefetch",
                  "the Section VI methodology, extended to every "
                  "registered scheme",
                  insts);

    TournamentOptions options;
    options.insts = insts;
    options.config = bench::systemConfig();
    options.matrix = bench::matrixOptions();
    const TournamentResult result =
        runTournament(allWorkloads(), options);

    // Per-family standings at each core count: one row per scheme,
    // in leaderboard order so the strongest schemes read first.
    for (unsigned cores : result.coreCounts) {
        std::printf("-- %u core%s --\n", cores,
                    cores == 1 ? "" : "s");
        TextTable t;
        std::vector<std::string> header = {"scheme"};
        for (const auto &suite : result.suites)
            header.push_back(suite);
        t.header(header);
        for (const auto &entry : result.leaderboard) {
            std::vector<std::string> row = {entry.scheme};
            for (const auto &suite : result.suites) {
                bool found = false;
                for (const auto &cell : result.cells) {
                    if (cell.scheme != entry.scheme ||
                        cell.cores != cores || cell.suite != suite)
                        continue;
                    row.push_back(TextTable::num(cell.speedup, 2) +
                                  "x");
                    found = true;
                    break;
                }
                if (!found)
                    row.push_back("-");
            }
            t.row(row);
        }
        std::printf("%s\n", t.render().c_str());
    }

    std::printf("-- leaderboard (geomean speedup over all workloads "
                "and core counts) --\n");
    std::printf("%s\n", leaderboardTable(result).c_str());
    printDbmsSection(result);

    const std::string json = tournamentJson(result);
    const char *json_path = "BENCH_tournament.json";
    std::FILE *f = std::fopen(json_path, "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", json_path);
        return 1;
    }
    std::fprintf(f, "%s\n", json.c_str());
    std::fclose(f);
    std::fprintf(stderr, "tournament results written to %s\n",
                 json_path);
    return 0;
}
