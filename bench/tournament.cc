/**
 * @file
 * Prefetcher tournament: every registered scheme (the zoo, including
 * the extension prefetchers) raced over every workload family at 1,
 * 2 and 4 cores, then ranked by geomean speedup over No-Prefetch.
 *
 * stdout carries the per-family standings and the final leaderboard
 * (golden-diffed by CI); the full cell matrix lands in
 * BENCH_tournament.json (schema: docs/FORMATS.md) for trend
 * tracking. Both are byte-identical for any --jobs value and across
 * a checkpoint resume.
 */

#include <cstdio>

#include "common.hh"
#include "base/table.hh"
#include "sim/tournament.hh"
#include "workloads/registry.hh"

using namespace cbws;

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
