/**
 * @file
 * cbws-sim — command-line simulation driver.
 *
 * Runs one workload (or a trace file) through one or all prefetcher
 * configurations on the Table II system, with every interesting knob
 * exposed as a flag. Human-readable, JSON or gem5-style stats output.
 *
 * Examples:
 *   cbws-sim --list
 *   cbws-sim --workload sgemm-medium --scheme all
 *   cbws-sim --workload nw --scheme CBWS --insts 200000 --json
 *   cbws-sim --workload fft-simlarge --scheme CBWS \
 *       --pf-opt table-entries=64
 *   cbws-sim --workload stencil-default --save-trace stencil.cbt
 *   cbws-sim --load-trace stencil.cbt --scheme CBWS+SMS
 *   cbws-sim --workload radix-simlarge --auto-annotate
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "base/argparse.hh"
#include "base/metrics.hh"
#include "base/profiler.hh"
#include "base/table.hh"
#include "mem/dram/backend.hh"
#include "prefetch/registry.hh"
#include "sim/experiment.hh"
#include "sim/report.hh"
#include "sim/simmetrics.hh"
#include "sim/statsdump.hh"
#include "sim/tracefmt.hh"
#include "trace/loop_annotator.hh"
#include "workloads/registry.hh"

using namespace cbws;

namespace
{

/**
 * `--scheme help`: the registry's schemes with descriptions, then
 * every scheme's tunable parameters (the describe() seam) with their
 * types and Table II defaults, ready for `--pf-opt key=value`.
 */
void
listSchemes()
{
    TextTable t;
    t.header({"scheme", "description"});
    for (const auto &name : prefetcherRegistry().names())
        t.row({name, prefetcherRegistry().describe(name)});
    std::printf("%s", t.render().c_str());
    std::printf("\nnames are case-insensitive; 'all' runs the "
                "paper's seven schemes\n");
    std::printf("\nparameters (override with --pf-opt key=value, "
                "repeatable):\n");
    for (const auto &name : prefetcherRegistry().names()) {
        const auto keys = prefetcherRegistry().describeParams(name);
        if (keys.empty()) {
            std::printf("\n%s: no tunable parameters\n",
                        name.c_str());
            continue;
        }
        std::printf("\n%s:\n", name.c_str());
        TextTable params;
        params.header({"key", "type", "default", "meaning"});
        for (const auto &k : keys)
            params.row({k.key, k.type, k.defaultValue, k.help});
        std::printf("%s", params.render().c_str());
    }
}

/** `--dram help`: the registered DRAM timing backends. */
void
listDramBackends()
{
    TextTable t;
    t.header({"backend", "description"});
    for (const auto &name : dramBackendRegistry().names())
        t.row({name, dramBackendRegistry().describe(name)});
    std::printf("%s", t.render().c_str());
    std::printf("\nnames are case-insensitive; the default is "
                "'fixed'\n");
}

void
listWorkloads()
{
    TextTable t;
    t.header({"benchmark", "suite", "group"});
    for (const auto &w : allWorkloads()) {
        t.row({w->name(), w->suite(),
               w->memoryIntensive() ? "memory-intensive"
                                    : "low-MPKI"});
    }
    std::printf("%s", t.render().c_str());
}

void
applyOverrides(const ArgParser &args, SystemConfig &config)
{
    if (args.provided("l2-kb")) {
        config.mem.l2.sizeBytes =
            args.getUint("l2-kb", 2048) * 1024;
    }
    if (args.provided("l2-banks")) {
        config.mem.l2Banks = static_cast<unsigned>(
            args.getUint("l2-banks", 4));
    }
    if (args.provided("dram"))
        config.mem.dramBackend = args.get("dram");
    if (args.provided("dram-latency")) {
        config.mem.dramLatency =
            args.getUint("dram-latency", 300);
    }
    if (args.provided("dram-tburst")) {
        config.mem.ddr.tBURST = args.getUint("dram-tburst", 8);
    }
    if (args.provided("l1d-mshrs")) {
        config.mem.l1d.mshrs = static_cast<unsigned>(
            args.getUint("l1d-mshrs", 4));
    }
    if (args.provided("rob")) {
        config.core.robSize =
            static_cast<unsigned>(args.getUint("rob", 128));
    }
}

void
printHuman(const SimResult &r)
{
    // Aggregate loopCycles sums every core's count while cycles is
    // the slowest core's, so re-derive the fraction over the summed
    // per-core cycles for multi-core runs.
    double loop_fraction = r.core.loopFraction();
    if (r.cores > 1) {
        std::uint64_t total_cycles = 0;
        for (const auto &s : r.perCore)
            total_cycles += s.core.cycles;
        loop_fraction =
            total_cycles ? static_cast<double>(r.core.loopCycles) /
                               static_cast<double>(total_cycles)
                         : 0.0;
    }
    std::printf("%-12s ipc=%.4f cycles=%llu insts=%llu mpki=%.2f "
                "l1d-miss%%=%.1f\n",
                r.prefetcher.c_str(), r.ipc(),
                static_cast<unsigned long long>(r.core.cycles),
                static_cast<unsigned long long>(
                    r.core.instructions),
                r.mpki(),
                r.mem.l1dAccesses
                    ? 100.0 * r.mem.l1dMisses / r.mem.l1dAccesses
                    : 0.0);
    std::printf(
        "             timely=%.1f%% shorter=%.1f%% nontimely=%.1f%% "
        "missing=%.1f%% wrong=%.1f%%\n",
        100 * r.classFraction(DemandClass::Timely),
        100 * r.classFraction(DemandClass::Shorter),
        100 * r.classFraction(DemandClass::NonTimely),
        100 * r.classFraction(DemandClass::Missing),
        100 * r.wrongFraction());
    std::printf("             pf: req=%llu issued=%llu filtered=%llu "
                "dropped=%llu; dram=%.2f MB read / %.2f MB written; "
                "loop=%.1f%%; bp-miss=%llu\n",
                static_cast<unsigned long long>(
                    r.mem.prefetchesRequested),
                static_cast<unsigned long long>(
                    r.mem.prefetchesIssued),
                static_cast<unsigned long long>(
                    r.mem.prefetchesFiltered),
                static_cast<unsigned long long>(
                    r.mem.prefetchesDropped),
                r.mem.dramBytesRead / 1e6,
                r.mem.dramBytesWritten / 1e6,
                100 * loop_fraction,
                static_cast<unsigned long long>(
                    r.core.branchMispredicts));
    if (r.cores > 1) {
        for (std::size_t c = 0; c < r.perCore.size(); ++c) {
            const CoreSliceResult &s = r.perCore[c];
            std::printf(
                "             core%zu %-12s ipc=%.4f mpki=%.2f "
                "llc-miss=%llu pollution(victim=%llu caused=%llu) "
                "l2-lines=%llu\n",
                c, s.workload.c_str(), s.ipc(), s.mpki(),
                static_cast<unsigned long long>(
                    s.mem.llcDemandMisses),
                static_cast<unsigned long long>(
                    s.mem.pollutionVictimMisses),
                static_cast<unsigned long long>(
                    s.mem.pollutionCausedMisses),
                static_cast<unsigned long long>(
                    s.mem.l2ResidentLines));
        }
        std::printf("             interference: "
                    "cross-core-pollution=%llu "
                    "l2-bank-conflicts=%llu\n",
                    static_cast<unsigned long long>(
                        r.mem.crossCorePollutionMisses),
                    static_cast<unsigned long long>(
                        r.mem.l2BankConflicts));
    }
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    ArgParser args("cbws-sim",
                   "run the CBWS reproduction's simulator");
    args.addFlag("list", "list the available benchmarks and exit");
    args.addOption("workload", "benchmark to run",
                   "stencil-default");
    args.addOption("scheme",
                   "scheme name as in the paper's figures, or 'all' "
                   "('help' lists the registered schemes)",
                   "CBWS+SMS");
    args.addRepeatable("pf-opt",
                       "scheme parameter override as key=value (e.g. "
                       "degree=4, cbws.table-entries=32); see "
                       "--scheme help for the accepted keys");
    args.addOption("insts", "committed-instruction budget", "120000");
    args.addOption("warmup",
                   "instructions whose statistics are discarded "
                   "(default: insts/4)",
                   "");
    args.addOption("seed", "workload synthesis seed", "42");
    args.addOption("save-trace",
                   "write the generated trace to this file", "");
    args.addOption("load-trace",
                   "replay a trace file instead of a workload", "");
    args.addFlag("auto-annotate",
                 "strip kernel markers and re-annotate with the "
                 "automatic loop detector");
    args.addFlag("json", "machine-readable JSON output");
    args.addFlag("stats", "gem5-style full statistics dump");
    args.addOption("cores",
                   "cores sharing the L2 and DRAM (multi-core mode "
                   "when > 1)",
                   "1");
    args.addOption("core-workloads",
                   "comma-separated per-core benchmarks, assigned "
                   "round-robin when fewer than --cores (default: "
                   "--workload on every core)",
                   "");
    args.addOption("l2-banks",
                   "L2 banks arbitrating multi-core accesses", "");
    args.addOption("l2-kb", "L2 capacity in KB", "");
    args.addOption("dram",
                   "DRAM timing backend ('help' lists them)",
                   "fixed");
    args.addOption("dram-latency", "memory latency in cycles", "");
    args.addOption("dram-tburst",
                   "ddr backend data-bus cycles per 64 B line "
                   "(bandwidth = 64/tBURST B/cycle)",
                   "");
    args.addOption("l1d-mshrs", "L1D MSHR count", "");
    args.addOption("rob", "reorder-buffer entries", "");
    args.addOption("stats-file",
                   "write the gem5-style statistics dump here "
                   "(implies --stats semantics for the file)",
                   "");
    args.addOption("chrome-trace",
                   "write a Chrome trace-event JSON timeline here "
                   "(single-prefetcher runs only)",
                   "");
    args.addOption("trace-start",
                   "first cycle recorded in the Chrome trace", "0");
    args.addOption("trace-end",
                   "first cycle not recorded in the Chrome trace",
                   "");
    args.addOption("trace-max-events",
                   "Chrome trace event cap", "500000");
    args.addFlag("profile",
                 "host-side self-profiler: attribute the simulator's "
                 "own wall time to phases and print the breakdown");
    args.addOption("profile-json",
                   "profile artifact destination (implies --profile)",
                   "BENCH_profile.json");
    args.addFlag("provenance",
                 "stamp the --json report with build provenance "
                 "(git SHA, compiler, build type)");
    args.addFlag("metrics",
                 "export the hierarchical metrics registry: a "
                 "'metrics' section in --json reports, scheme gauges "
                 "after the human summary, and counter samples in "
                 "--chrome-trace output");

    if (!args.parse(argc, argv))
        return 1;
    if (args.helpRequested())
        return 0;
    if (args.getFlag("list")) {
        listWorkloads();
        return 0;
    }

    // Start the self-profiler before any profiled work (trace
    // synthesis is a phase) so the calibration window covers it.
    if (args.getFlag("profile") || args.provided("profile-json"))
        prof::enable();

    // --scheme help lists the registered schemes.
    const std::string scheme = args.get("scheme");
    if (scheme == "help") {
        listSchemes();
        return 0;
    }
    if (args.get("dram") == "help") {
        listDramBackends();
        return 0;
    }
    if (!dramBackendRegistry().contains(args.get("dram"))) {
        std::fprintf(stderr,
                     "--dram: unknown backend '%s' (try --dram "
                     "help)\n",
                     args.get("dram").c_str());
        return 1;
    }

    // The run and system-config options are read before any trace is
    // synthesised, so a malformed value among them fails fast.
    const std::uint64_t insts = args.getUint("insts", 120000);
    const std::uint64_t warmup =
        args.provided("warmup") ? args.getUint("warmup", 0)
                                : insts / 4;
    if (args.provided("warmup") && warmup >= insts) {
        std::fprintf(stderr,
                     "--warmup: %llu leaves nothing to measure; it "
                     "must be below --insts (%llu)\n",
                     static_cast<unsigned long long>(warmup),
                     static_cast<unsigned long long>(insts));
        return 1;
    }
    const std::uint64_t seed = args.getUint("seed", 42);
    SystemConfig base_config;
    applyOverrides(args, base_config);

    // Multi-core mode: cache line owners are tracked in a byte, and
    // trace/save flags operate on the one single-core trace.
    const unsigned num_cores =
        static_cast<unsigned>(args.getUint("cores", 1));
    if (num_cores == 0 || num_cores > 255) {
        std::fprintf(stderr, "--cores: need 1..255\n");
        return 1;
    }
    if (num_cores > 1) {
        if (args.provided("load-trace") ||
            args.provided("save-trace") ||
            args.getFlag("auto-annotate")) {
            std::fprintf(stderr,
                         "--load-trace/--save-trace/--auto-annotate "
                         "apply to single-core runs only\n");
            return 1;
        }
    } else if (args.provided("core-workloads")) {
        std::fprintf(stderr, "--core-workloads needs --cores > 1\n");
        return 1;
    }

    // One Chrome trace file describes one simulated system, and its
    // window flags shape only that file; an empty window would write
    // a file with no events.
    const Cycle trace_start = args.getUint("trace-start", 0);
    const Cycle trace_end = args.provided("trace-end")
                                ? args.getUint("trace-end", 0)
                                : ~Cycle(0);
    const std::uint64_t trace_max_events =
        args.getUint("trace-max-events", 500000);
    if (!args.provided("chrome-trace")) {
        for (const char *flag :
             {"trace-start", "trace-end", "trace-max-events"}) {
            if (args.provided(flag)) {
                std::fprintf(stderr,
                             "--%s applies only with --chrome-trace\n",
                             flag);
                return 1;
            }
        }
    } else if (scheme == "all") {
        std::fprintf(stderr, "--chrome-trace needs a single "
                             "prefetcher (not 'all')\n");
        return 1;
    } else if (trace_end <= trace_start) {
        std::fprintf(stderr,
                     "--trace-end: %llu must be above --trace-start "
                     "(%llu); the trace window would be empty\n",
                     static_cast<unsigned long long>(trace_end),
                     static_cast<unsigned long long>(trace_start));
        return 1;
    } else if (trace_max_events == 0) {
        std::fprintf(stderr, "--trace-max-events: 0 would record no "
                             "event; give a positive cap\n");
        return 1;
    }

    // Obtain the trace(s): load, or synthesise from workloads.
    Trace trace;
    std::string workload_name;
    std::vector<std::string> core_names;    // one per core
    std::vector<Trace> core_storage;        // one per distinct name
    std::vector<const Trace *> core_traces; // one per core
    if (num_cores > 1) {
        std::vector<std::string> requested;
        std::string cur;
        for (char ch : args.get("core-workloads")) {
            if (ch == ',') {
                if (!cur.empty())
                    requested.push_back(cur);
                cur.clear();
            } else {
                cur += ch;
            }
        }
        if (!cur.empty())
            requested.push_back(cur);
        if (requested.empty())
            requested.push_back(args.get("workload"));
        // Round-robin the requested list over the cores, then
        // synthesise each distinct workload exactly once.
        std::vector<std::string> uniq;
        std::vector<std::size_t> trace_of(num_cores);
        for (unsigned c = 0; c < num_cores; ++c) {
            const std::string &name =
                requested[c % requested.size()];
            core_names.push_back(name);
            std::size_t u = 0;
            while (u < uniq.size() && uniq[u] != name)
                ++u;
            if (u == uniq.size())
                uniq.push_back(name);
            trace_of[c] = u;
        }
        core_storage.resize(uniq.size());
        for (std::size_t u = 0; u < uniq.size(); ++u) {
            auto found = findWorkloadChecked(uniq[u]);
            if (!found.ok()) {
                std::fprintf(stderr, "%s\n",
                             found.error().str().c_str());
                return 1;
            }
            auto workload = std::move(found).value();
            WorkloadParams params;
            params.maxInstructions = insts;
            params.seed = seed;
            PROF_SCOPE(prof::Phase::TraceSynthesis);
            workload->generate(core_storage[u], params);
        }
        for (unsigned c = 0; c < num_cores; ++c)
            core_traces.push_back(&core_storage[trace_of[c]]);
        workload_name = core_names[0];
        for (unsigned c = 1; c < num_cores; ++c)
            workload_name += "+" + core_names[c];
    } else if (args.provided("load-trace")) {
        Result<void> loaded = trace.loadFrom(args.get("load-trace"));
        if (!loaded.ok()) {
            std::fprintf(stderr, "--load-trace: %s\n",
                         loaded.error().str().c_str());
            return 1;
        }
        workload_name = args.get("load-trace");
    } else {
        auto workload = findWorkload(args.get("workload"));
        if (!workload) {
            std::fprintf(stderr,
                         "unknown benchmark '%s' (use --list)\n",
                         args.get("workload").c_str());
            return 1;
        }
        WorkloadParams params;
        params.maxInstructions = insts;
        params.seed = seed;
        {
            PROF_SCOPE(prof::Phase::TraceSynthesis);
            workload->generate(trace, params);
        }
        workload_name = workload->name();
    }

    if (args.getFlag("auto-annotate")) {
        Trace raw;
        for (const auto &rec : trace)
            if (!isBlockMarker(rec.cls))
                raw.append(rec);
        LoopAnnotator annotator;
        trace = annotator.annotate(raw);
        std::fprintf(stderr,
                     "auto-annotation found %zu tight innermost "
                     "loop(s)\n",
                     annotator.loops().size());
    }

    if (args.provided("save-trace")) {
        Result<void> saved = trace.saveTo(args.get("save-trace"));
        if (!saved.ok()) {
            std::fprintf(stderr, "--save-trace: %s\n",
                         saved.error().str().c_str());
            return 1;
        }
        std::fprintf(stderr, "saved %zu records to %s\n",
                     trace.size(), args.get("save-trace").c_str());
    }

    if (num_cores == 1) {
        core_traces.push_back(&trace);
        core_names.push_back(workload_name);
    }

    // Select the schemes (string registry keys, case-insensitive).
    std::vector<std::string> schemes;
    if (scheme == "all") {
        schemes = allSchemeNames();
    } else {
        if (!prefetcherRegistry().contains(scheme)) {
            std::fprintf(stderr, "--scheme: unknown scheme '%s'; one of:",
                         scheme.c_str());
            for (const auto &name : prefetcherRegistry().names())
                std::fprintf(stderr, " '%s'", name.c_str());
            std::fprintf(stderr,
                         " or 'all' ('help' lists details)\n");
            return 1;
        }
        schemes.push_back(
            prefetcherRegistry().canonicalName(scheme));
    }

    // Fail fast on bad --pf-opt strings: every key must be accepted
    // by at least one selected scheme and every value must parse.
    const std::vector<std::string> pf_opts = args.getAll("pf-opt");
    {
        Result<void> valid =
            prefetcherRegistry().validateOptions(schemes, pf_opts);
        if (!valid.ok()) {
            std::fprintf(stderr, "--pf-opt: %s\n",
                         valid.error().str().c_str());
            return 1;
        }
    }

    std::unique_ptr<ChromeTraceWriter> chrome;
    if (args.provided("chrome-trace")) {
        chrome = std::make_unique<ChromeTraceWriter>(
            args.get("chrome-trace"), trace_start, trace_end,
            trace_max_events);
        if (!chrome->ok())
            return 1;
    }

    const bool quiet = args.getFlag("json");
    if (!quiet) {
        if (num_cores > 1)
            std::printf("%s: %u cores, %llu insts/core "
                        "(%llu warmup)\n\n",
                        workload_name.c_str(), num_cores,
                        static_cast<unsigned long long>(insts),
                        static_cast<unsigned long long>(warmup));
        else
            std::printf("%s: %zu records, %llu insts "
                        "(%llu warmup)\n\n",
                        workload_name.c_str(), trace.size(),
                        static_cast<unsigned long long>(insts),
                        static_cast<unsigned long long>(warmup));
    }

    std::ofstream stats_file;
    if (args.provided("stats-file")) {
        stats_file.open(args.get("stats-file"));
        if (!stats_file) {
            std::fprintf(stderr, "cannot open '%s' for writing\n",
                         args.get("stats-file").c_str());
            return 1;
        }
    }

    ReportOptions report_options;
    report_options.provenance = args.getFlag("provenance");
    report_options.metrics = args.getFlag("metrics");

    std::vector<SimResult> results;
    for (const std::string &scheme_name : schemes) {
        SystemConfig config = base_config;
        config.scheme = scheme_name;
        config.pfOpts = pf_opts;
        MetricsRegistry scheme_metrics;
        SimProbes probes;
        probes.trace = chrome.get();
        if (args.getFlag("metrics"))
            probes.schemeMetrics = &scheme_metrics;
        SimResult r = simulateMulti(core_traces, core_names, config,
                                    insts, probes, warmup);
        r.workload = workload_name;
        if (stats_file.is_open())
            dumpStats(stats_file, r);
        if (chrome && args.getFlag("metrics")) {
            chrome->writeMetricCounters(simMetrics(r),
                                        r.core.cycles);
            chrome->writeMetricCounters(scheme_metrics,
                                        r.core.cycles);
        }
        if (args.getFlag("json")) {
            results.push_back(std::move(r));
        } else if (args.getFlag("stats")) {
            dumpStats(std::cout, r);
        } else {
            printHuman(r);
            if (args.getFlag("metrics") && !scheme_metrics.empty()) {
                std::printf("\nscheme metrics:\n");
                scheme_metrics.dumpText(std::cout);
            }
        }
    }
    // Merge host-profiler time into the Chrome trace before the
    // footer is written.
    prof::Report profile_report;
    if (prof::enabled()) {
        profile_report = prof::report();
        if (chrome)
            chrome->writeHostPhases(profile_report);
    }
    if (chrome)
        chrome->close();
    if (args.getFlag("json"))
        std::printf("%s\n", toJson(results, report_options).c_str());
    if (prof::enabled()) {
        // Keep machine-readable stdout (json) clean: the table
        // goes to stderr there, stdout otherwise.
        const std::string table = prof::renderTable(profile_report);
        std::fputs(table.c_str(), quiet ? stderr : stdout);
        const std::string profile_path = args.get("profile-json");
        if (!prof::writeJsonFile(profile_path, profile_report)) {
            std::fprintf(stderr,
                         "--profile: cannot write '%s'\n",
                         profile_path.c_str());
            return 1;
        }
        if (!quiet)
            std::printf("profile written to %s\n",
                        profile_path.c_str());
    }
    return 0;
}
