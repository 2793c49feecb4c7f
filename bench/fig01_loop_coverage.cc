/**
 * @file
 * Regenerates Fig. 1: fraction of runtime spent executing tight,
 * innermost loops for the 15 memory-intensive benchmarks.
 *
 * The paper reports that, on average, over 70% of the MI benchmarks'
 * runtime is spent in tight loops. We attribute every simulated cycle
 * to the annotated block (if any) the commit head belongs to, on the
 * no-prefetch configuration.
 */

#include <cstdio>

#include "base/table.hh"
#include "common.hh"
#include "workloads/registry.hh"

using namespace cbws;

int
main(int argc, char **argv)
{
    bench::init(argc, argv, bench::Options::None);
    const std::uint64_t insts = benchInstructionBudget();
    bench::banner("Figure 1 - runtime fraction in tight innermost "
                  "loops",
                  "Figure 1", insts);

    SystemConfig config;
    WorkloadParams params;
    params.maxInstructions = insts;

    TextTable table;
    table.header({"benchmark", "loop", "non-loop"});
    double sum = 0.0;
    std::size_t n = 0;
    for (const auto &w : memoryIntensiveWorkloads()) {
        SimResult r = simulateWorkload(*w, config, params);
        const double loop = r.core.loopFraction();
        table.row({r.workload, bench::pct(loop),
                   bench::pct(1.0 - loop)});
        sum += loop;
        ++n;
    }
    table.row({"average", bench::pct(sum / n),
               bench::pct(1.0 - sum / n)});
    std::printf("%s\n", table.render().c_str());
    std::printf("Paper: >70%% of MI-benchmark runtime is inside "
                "tight innermost loops on average.\nMeasured "
                "average: %s\n",
                bench::pct(sum / n).c_str());
    return 0;
}
