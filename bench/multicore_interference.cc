/**
 * @file
 * Extension experiment (beyond the paper): prefetcher interference
 * between cores sharing an L2.
 *
 * The paper evaluates CBWS on a single core with a private 2 MB L2.
 * When several cores share that L2, one core's prefetches can evict
 * another core's useful lines — the classic pollution argument against
 * aggressive prefetching in CMPs. This bench runs a two-workload rate
 * mix on 1, 2 and 4 cores over a deliberately small shared L2 and
 * reports per-core slowdown versus the solo run, the cross-core
 * prefetch-pollution misses the hierarchy attributes, and the L2 bank
 * conflicts added by sharing. Results go to BENCH_multicore.json for
 * CI trend tracking.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "base/json.hh"
#include "base/table.hh"
#include "common.hh"
#include "workloads/registry.hh"

using namespace cbws;

namespace
{

/** Aggregate throughput: all committed instructions over the slowest
 *  core's cycles. */
double
throughputIpc(const SimResult &r)
{
    return r.core.cycles ? static_cast<double>(r.core.instructions) /
                               static_cast<double>(r.core.cycles)
                         : 0.0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bench::init(argc, argv);
    const std::uint64_t insts = benchInstructionBudget(40000);
    bench::banner("Extension - multi-core shared-L2 prefetcher "
                  "interference",
                  "rate mix on a shared L2 (extension; cf. Sec. VI "
                  "single-core setup)",
                  insts);

    // A small shared L2 makes capacity interference visible at bench
    // budgets; the mix pairs two memory-intensive streams with
    // different footprints so prefetches of one evict the other.
    const std::vector<std::string> mix = {"radix-simlarge",
                                          "lbm-long"};
    SystemConfig config = bench::systemConfig();
    config.scheme = "CBWS+SMS";
    config.mem.l2.sizeBytes = 64 * 1024;

    // Synthesise each mix member once; every core replays a shared
    // read-only copy.
    std::vector<Trace> traces(mix.size());
    for (std::size_t i = 0; i < mix.size(); ++i) {
        auto found = findWorkloadChecked(mix[i]);
        if (!found.ok()) {
            std::fprintf(stderr, "%s\n",
                         found.error().str().c_str());
            return 1;
        }
        auto w = std::move(found).value();
        WorkloadParams params;
        params.maxInstructions = insts;
        traces[i].reserve(insts + 512);
        w->generate(traces[i], params);
    }

    // Solo IPC of each mix member on the same (shared-size) system is
    // the slowdown baseline.
    std::vector<double> solo_ipc(mix.size());
    for (std::size_t i = 0; i < mix.size(); ++i) {
        SimResult solo = simulate(traces[i], config, insts,
                                  SimProbes(), insts / 4);
        solo_ipc[i] = solo.ipc();
    }

    TextTable table;
    table.header({"cores", "agg IPC", "worst slowdown",
                  "cross-core pollution", "bank conflicts"});

    JsonWriter json;
    json.beginObject();
    json.field("bench", "multicore_interference");
    json.field("instructions_per_core", insts);
    json.field("prefetcher", config.scheme);
    json.field("l2_kb", config.mem.l2.sizeBytes / 1024);
    json.key("mix");
    json.beginArray();
    for (const auto &name : mix)
        json.value(name);
    json.endArray();
    json.key("points");
    json.beginArray();

    bool pollution_seen = false;
    for (unsigned cores : {1u, 2u, 4u}) {
        std::vector<const Trace *> core_traces;
        std::vector<std::string> core_names;
        for (unsigned c = 0; c < cores; ++c) {
            core_traces.push_back(&traces[c % mix.size()]);
            core_names.push_back(mix[c % mix.size()]);
        }
        SystemConfig cfg = config;
        cfg.mem.numCores = cores;
        const SimResult r =
            simulateMulti(core_traces, core_names, cfg, insts,
                          SimProbes(), insts / 4);

        double worst_slowdown = 1.0;
        if (cores > 1) {
            for (unsigned c = 0; c < cores; ++c) {
                const double base = solo_ipc[c % mix.size()];
                const double ipc = r.perCore[c].ipc();
                if (ipc > 0 && base / ipc > worst_slowdown)
                    worst_slowdown = base / ipc;
            }
        }
        if (r.mem.crossCorePollutionMisses > 0)
            pollution_seen = true;

        table.row({std::to_string(cores),
                   TextTable::num(throughputIpc(r), 3),
                   TextTable::num(worst_slowdown, 2) + "x",
                   std::to_string(r.mem.crossCorePollutionMisses),
                   std::to_string(r.mem.l2BankConflicts)});

        json.beginObject();
        json.field("cores", static_cast<std::uint64_t>(cores));
        json.field("aggregate_ipc", throughputIpc(r));
        json.field("worst_slowdown", worst_slowdown);
        json.field("cross_core_pollution_misses",
                   r.mem.crossCorePollutionMisses);
        json.field("l2_bank_conflicts", r.mem.l2BankConflicts);
        json.key("per_core");
        json.beginArray();
        if (cores == 1) {
            json.beginObject();
            json.field("workload", core_names[0]);
            json.field("ipc", r.ipc());
            json.field("mpki", r.mpki());
            json.endObject();
        } else {
            for (const CoreSliceResult &s : r.perCore) {
                json.beginObject();
                json.field("workload", s.workload);
                json.field("ipc", s.ipc());
                json.field("mpki", s.mpki());
                json.endObject();
            }
        }
        json.endArray();
        json.endObject();
    }
    json.endArray();
    json.field("pollution_seen", pollution_seen);
    json.endObject();

    std::printf("%s\n", table.render().c_str());
    std::printf("Expectation: slowdown and pollution grow with the "
                "core count; the attributed\ncross-core pollution "
                "misses are nonzero once the shared L2 is "
                "capacity-stressed.\n");

    std::FILE *out = std::fopen("BENCH_multicore.json", "w");
    if (out) {
        std::fprintf(out, "%s\n", json.str().c_str());
        std::fclose(out);
        std::printf("wrote BENCH_multicore.json\n");
    } else {
        std::fprintf(stderr, "could not write BENCH_multicore.json\n");
    }
    return 0;
}
