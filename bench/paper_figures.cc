/**
 * @file
 * Regenerates Figs. 12-15, the paper's evaluation: one matrix of
 * every benchmark under all seven prefetching configurations on the
 * Table II system, simulated once and printed as four views.
 *
 *   Fig. 12  LLC misses per kilo-instruction (lower is better)
 *   Fig. 13  timeliness and accuracy as % of demand L2 accesses, in
 *            the paper's five categories: timely, shorter-waiting-
 *            time, non-timely, missing, wrong (wrong can exceed 100%)
 *   Fig. 14  IPC normalised to SMS (higher is better). Headline:
 *            CBWS+SMS outperforms SMS by ~1.31x on the MI group and
 *            ~1.16x over all 30 benchmarks
 *   Fig. 15  performance/cost: IPC per DRAM byte read, normalised to
 *            no-prefetch (higher is better)
 */

#include <cstdio>

#include "base/table.hh"
#include "common.hh"
#include "workloads/registry.hh"

using namespace cbws;

namespace
{

/** Header row: "benchmark" (or @p first) and one column per scheme. */
std::vector<std::string>
schemeHeader(const ExperimentMatrix &matrix,
             const std::string &first = "benchmark")
{
    std::vector<std::string> header = {first};
    for (const auto &scheme : matrix.schemes)
        header.push_back(scheme);
    return header;
}

void
fig12Mpki(const ExperimentMatrix &matrix, std::uint64_t insts)
{
    bench::banner("Figure 12 - LLC misses per kilo-instruction "
                  "(lower is better)",
                  "Figure 12", insts);

    TextTable table;
    table.header(schemeHeader(matrix));

    auto emit_avg = [&](const char *label, bool mi_only) {
        std::vector<std::string> row = {label};
        for (std::size_t k = 0; k < matrix.schemes.size(); ++k) {
            const double avg = matrix.average(
                [&](const WorkloadRow &r) {
                    return r.byPrefetcher[k].mpki();
                },
                mi_only);
            row.push_back(TextTable::num(avg, 2));
        }
        table.row(row);
    };

    for (const auto &row : matrix.rows) {
        if (!row.memoryIntensive)
            continue;
        std::vector<std::string> cells = {row.workload};
        for (const auto &res : row.byPrefetcher)
            cells.push_back(TextTable::num(res.mpki(), 2));
        table.row(cells);
    }
    emit_avg("average-MI", true);
    emit_avg("average-ALL", false);
    std::printf("%s\n", table.render().c_str());
    std::printf(
        "Paper: CBWS+SMS delivers the lowest MPKI on average and on "
        "all benchmarks except\nlibquantum and fft (tying SMS on "
        "bzip2); standalone CBWS eliminates misses on\n"
        "block-structured benchmarks (sgemm, radix) but trails SMS "
        "on fft/streamcluster.\n");
}

void
fig13Timeliness(const ExperimentMatrix &matrix, std::uint64_t insts)
{
    bench::banner("Figure 13 - prefetch timeliness and accuracy "
                  "(% of demand L2 accesses)",
                  "Figure 13", insts);

    TextTable table;
    table.header({"benchmark", "scheme", "timely", "shorter",
                  "non-timely", "missing", "wrong"});

    auto emit = [&table](const std::string &name,
                         const SimResult &r) {
        table.row({name, r.prefetcher,
                   bench::pct(r.classFraction(DemandClass::Timely)),
                   bench::pct(r.classFraction(DemandClass::Shorter)),
                   bench::pct(
                       r.classFraction(DemandClass::NonTimely)),
                   bench::pct(r.classFraction(DemandClass::Missing)),
                   bench::pct(r.wrongFraction())});
    };

    for (const auto &row : matrix.rows) {
        if (!row.memoryIntensive)
            continue;
        for (const auto &res : row.byPrefetcher) {
            if (res.prefetcher == "No-Prefetch")
                continue;
            emit(row.workload, res);
        }
    }

    // Averages over the MI group and all benchmarks.
    for (bool mi_only : {true, false}) {
        for (std::size_t k = 1; k < matrix.schemes.size(); ++k) {
            auto avg = [&](auto metric) {
                return matrix.average(
                    [&](const WorkloadRow &r) {
                        return metric(r.byPrefetcher[k]);
                    },
                    mi_only);
            };
            table.row(
                {mi_only ? "average-MI" : "average-ALL",
                 matrix.schemes[k],
                 bench::pct(avg([](const SimResult &r) {
                     return r.classFraction(DemandClass::Timely);
                 })),
                 bench::pct(avg([](const SimResult &r) {
                     return r.classFraction(DemandClass::Shorter);
                 })),
                 bench::pct(avg([](const SimResult &r) {
                     return r.classFraction(DemandClass::NonTimely);
                 })),
                 bench::pct(avg([](const SimResult &r) {
                     return r.classFraction(DemandClass::Missing);
                 })),
                 bench::pct(avg([](const SimResult &r) {
                     return r.wrongFraction();
                 }))});
        }
    }
    std::printf("%s\n", table.render().c_str());
    std::printf(
        "Paper: CBWS achieves the best accuracy (wrong ~5%% MI / "
        "~4%% all); integrating CBWS\ninto SMS raises timely "
        "accesses (24%%->31%% MI) and roughly halves SMS's wrong\n"
        "prefetches.\n");
}

/** One Fig. 14 group: each kernel's IPC over its SMS IPC. */
void
speedupGroup(const ExperimentMatrix &matrix, bool mi_group)
{
    TextTable table;
    table.header(schemeHeader(matrix));

    for (std::size_t r = 0; r < matrix.rows.size(); ++r) {
        const auto &row = matrix.rows[r];
        if (row.memoryIntensive != mi_group)
            continue;
        const double sms = matrix.result(r, "SMS").ipc();
        std::vector<std::string> cells = {row.workload};
        for (const auto &res : row.byPrefetcher)
            cells.push_back(TextTable::num(res.ipc() / sms, 2));
        table.row(cells);
    }
    std::printf("%s\n", table.render().c_str());
}

void
fig14Speedup(const ExperimentMatrix &matrix, std::uint64_t insts)
{
    bench::banner("Figure 14 - IPC normalised to SMS (higher is "
                  "better)",
                  "Figure 14", insts);

    std::printf("-- memory-intensive group --\n");
    speedupGroup(matrix, true);
    std::printf("-- low-MPKI group --\n");
    speedupGroup(matrix, false);

    auto over_sms = [&](std::size_t k, bool mi_only) {
        return bench::geomean(
            matrix,
            [&](std::size_t r) {
                return matrix.rows[r].byPrefetcher[k].ipc() /
                       matrix.result(r, "SMS").ipc();
            },
            mi_only);
    };

    TextTable summary;
    summary.header(schemeHeader(matrix, "geomean"));
    for (bool mi_only : {true, false}) {
        std::vector<std::string> cells = {
            mi_only ? "MI group" : "all benchmarks"};
        for (std::size_t k = 0; k < matrix.schemes.size(); ++k)
            cells.push_back(TextTable::num(over_sms(k, mi_only), 2));
        summary.row(cells);
    }
    std::printf("%s\n", summary.render().c_str());

    const std::size_t hybrid = matrix.column("CBWS+SMS");
    std::printf("Headline: CBWS+SMS over SMS = %.2fx (MI; paper "
                "1.31x), %.2fx (all; paper 1.16x).\n",
                over_sms(hybrid, true), over_sms(hybrid, false));
}

void
fig15PerfCost(const ExperimentMatrix &matrix, std::uint64_t insts)
{
    bench::banner("Figure 15 - performance/cost: IPC per DRAM byte "
                  "read, normalised to no-prefetch",
                  "Figure 15", insts);

    // Scheme @p k's IPC per byte over row @p r's no-prefetch value.
    auto normalised = [&](std::size_t r, std::size_t k) {
        const double base =
            matrix.result(r, "No-Prefetch").perfPerByte();
        return base > 0
                   ? matrix.rows[r].byPrefetcher[k].perfPerByte() /
                         base
                   : 0.0;
    };

    TextTable table;
    table.header(schemeHeader(matrix));

    for (std::size_t r = 0; r < matrix.rows.size(); ++r) {
        if (!matrix.rows[r].memoryIntensive)
            continue;
        std::vector<std::string> cells = {matrix.rows[r].workload};
        for (std::size_t k = 0; k < matrix.schemes.size(); ++k)
            cells.push_back(TextTable::num(normalised(r, k), 2));
        table.row(cells);
    }
    for (bool mi_only : {true, false}) {
        std::vector<std::string> cells = {
            mi_only ? "geomean-MI" : "geomean-ALL"};
        for (std::size_t k = 0; k < matrix.schemes.size(); ++k) {
            const double g = bench::geomean(
                matrix,
                [&](std::size_t r) { return normalised(r, k); },
                mi_only);
            cells.push_back(TextTable::num(g, 2));
        }
        table.row(cells);
    }
    std::printf("%s\n", table.render().c_str());
    std::printf(
        "Paper: CBWS+SMS provides the best average performance/cost "
        "(1.64 vs 1.39 for SMS,\nrelative units); for stencil both "
        "differential schemes trade extra traffic for\nspeed.\n");
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bench::init(argc, argv);
    const std::uint64_t insts = benchInstructionBudget();

    const ExperimentMatrix matrix =
        runMatrix(allWorkloads(), allSchemeNames(),
                  bench::systemConfig(), insts, 42,
                  bench::matrixOptions());

    fig12Mpki(matrix, insts);
    fig13Timeliness(matrix, insts);
    fig14Speedup(matrix, insts);
    fig15PerfCost(matrix, insts);
    return 0;
}
