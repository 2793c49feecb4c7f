#include "common.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "base/argparse.hh"
#include "base/profiler.hh"
#include "mem/dram/backend.hh"

namespace cbws
{
namespace bench
{

namespace
{

/** Resolved by init() from the command line. */
unsigned g_jobs = 0;           // 0 = no --jobs: runMatrix runs serially
TraceCache g_trace_cache;      // disabled unless --trace-cache
std::string g_checkpoint;      // empty = checkpointing off
std::string g_dram = "fixed";  // DRAM timing backend
std::vector<std::string> g_pf_opts; // --pf-opt key=value overrides
std::string g_profile_json = "BENCH_profile.json";

/**
 * atexit hook: benches never return through a common function, so the
 * profile report is rendered when the process winds down. The table
 * goes to stderr — every bench's stdout is golden-diffed by CI.
 */
void
writeProfileAtExit()
{
    if (!prof::enabled())
        return;
    const prof::Report report = prof::report();
    std::fputs(prof::renderTable(report).c_str(), stderr);
    if (!prof::writeJsonFile(g_profile_json, report)) {
        std::fprintf(stderr, "profile: cannot write '%s'\n",
                     g_profile_json.c_str());
    } else {
        std::fprintf(stderr, "profile written to %s\n",
                     g_profile_json.c_str());
    }
}

} // anonymous namespace

void
init(int argc, char **argv, Options accepted)
{
    const char *program = argv && argc > 0 ? argv[0] : "bench";
    ArgParser parser(program,
                     "Figure-regenerating bench (CBWS reproduction)");
    if (accepted == Options::Matrix) {
        parser.addOption("jobs",
                         "worker threads for the experiment matrix "
                         "(default 1; results are identical for any "
                         "value)");
        parser.addOption("trace-cache",
                         "directory for the on-disk trace cache "
                         "(default: none; '0' or 'off' disables)");
        parser.addOption("checkpoint",
                         "crash-safe checkpoint file: finished matrix "
                         "cells are appended there and a restarted run "
                         "resumes instead of recomputing them");
    }
    if (accepted != Options::None) {
        parser.addOption("dram",
                         "DRAM timing backend: 'fixed' (paper's flat "
                         "latency, default) or 'ddr' (cycle-level "
                         "banked model)");
        parser.addRepeatable("pf-opt",
                             "scheme parameter override as key=value "
                             "(e.g. degree=4, cbws.table-entries=32); "
                             "validated against the bench's scheme "
                             "selection");
        parser.addFlag("profile",
                       "host-side self-profiler: phase/worker "
                       "breakdown on stderr at exit + "
                       "BENCH_profile.json");
        parser.addOption("profile-json",
                         "profile artifact destination (implies "
                         "--profile; default BENCH_profile.json)");
    }
    if (!parser.parse(argc, argv))
        std::exit(1);
    if (parser.helpRequested())
        std::exit(0);
    if (!parser.positionals().empty()) {
        std::fprintf(stderr, "%s: unexpected argument '%s'\n",
                     program, parser.positionals().front().c_str());
        std::exit(1);
    }
    if (accepted == Options::None)
        return;

    if (parser.provided("jobs")) {
        const std::uint64_t jobs = parser.getUint("jobs", 0);
        if (jobs == 0) {
            std::fprintf(stderr, "--jobs must be a positive integer\n");
            std::exit(1);
        }
        g_jobs = static_cast<unsigned>(jobs);
    }
    if (parser.provided("trace-cache")) {
        const std::string dir = parser.get("trace-cache");
        g_trace_cache = (dir.empty() || dir == "0" || dir == "off")
                            ? TraceCache()
                            : TraceCache(dir);
    }
    if (parser.provided("checkpoint"))
        g_checkpoint = parser.get("checkpoint");
    if (parser.provided("dram")) {
        g_dram = parser.get("dram");
        if (!dramBackendRegistry().contains(g_dram)) {
            std::fprintf(stderr,
                         "--dram: unknown backend '%s' (see "
                         "cbws-sim --dram help)\n",
                         g_dram.c_str());
            std::exit(1);
        }
    }
    g_pf_opts = parser.getAll("pf-opt");
    if (parser.provided("profile-json"))
        g_profile_json = parser.get("profile-json");
    if (parser.getFlag("profile") || parser.provided("profile-json"))
        prof::enable();
    if (prof::enabled())
        std::atexit(writeProfileAtExit);
}

MatrixOptions
matrixOptions()
{
    MatrixOptions options;
    options.jobs = g_jobs;
    if (g_trace_cache.enabled())
        options.traceCache = &g_trace_cache;
    options.checkpointPath = g_checkpoint;
    return options;
}

void
banner(const std::string &title, const std::string &paper_ref,
       std::uint64_t insts)
{
    std::printf("==============================================="
                "=============================\n");
    std::printf("%s\n", title.c_str());
    std::printf("Reproduces %s of \"Loop-Aware Memory Prefetching "
                "Using Code Block Working\nSets\" (MICRO 2014). "
                "%llu committed instructions per run "
                "(CBWS_BENCH_INSTS overrides).\n",
                paper_ref.c_str(),
                static_cast<unsigned long long>(insts));
    std::printf("==============================================="
                "=============================\n\n");
}

SystemConfig
systemConfig()
{
    SystemConfig config; // Table II defaults
    config.mem.dramBackend = g_dram;
    config.pfOpts = g_pf_opts;
    return config;
}

const std::vector<std::string> &
pfOpts()
{
    return g_pf_opts;
}

std::string
pct(double fraction, int precision)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.*f%%", precision,
                  fraction * 100.0);
    return buf;
}

} // namespace bench
} // namespace cbws
