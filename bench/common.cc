#include "common.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "base/argparse.hh"
#include "base/faultinject.hh"
#include "base/profiler.hh"
#include "mem/dram/backend.hh"
#include "workloads/registry.hh"

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
MatrixShard g_shard;           // --shard; {0, 1} = the whole matrix
std::vector<std::string> g_merge; // --merge shard checkpoints
std::string g_dram = "fixed";  // DRAM timing backend
std::vector<std::string> g_pf_opts; // --pf-opt key=value overrides
bool g_progress = false;       // live stderr progress line
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

/** Exit with a one-line usage error, as ArgParser does. */
[[noreturn]] void
usageError(const std::string &message)
{
    std::fprintf(stderr, "%s\n", message.c_str());
    std::exit(1);
}

} // anonymous namespace

void
init(int argc, char **argv, bool single_matrix)
{
    ArgParser parser(argv && argc > 0 ? argv[0] : "bench",
                     "Figure-regenerating bench (CBWS reproduction)");
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
    parser.addOption("shard",
                     "i/N: simulate only the cells c with c % N == i "
                     "into --checkpoint, seal it and exit 0 without "
                     "a report (merge the N shards with --merge)");
    parser.addOption("merge",
                     "comma-separated shard checkpoints: print the "
                     "report from their cells without simulating");
    parser.addOption("dram",
                     "DRAM timing backend: 'fixed' (paper's flat "
                     "latency, default) or 'ddr' (cycle-level banked "
                     "model)");
    parser.addRepeatable("pf-opt",
                         "scheme parameter override as key=value "
                         "(e.g. degree=4, cbws.table-entries=32); "
                         "validated against the bench's scheme "
                         "selection");
    parser.addFlag("profile",
                   "host-side self-profiler: phase/worker breakdown "
                   "on stderr at exit + BENCH_profile.json");
    parser.addOption("profile-json",
                     "profile artifact destination (implies "
                     "--profile; default BENCH_profile.json)");
    parser.addFlag("progress",
                   "live matrix progress line on stderr; stdout is "
                   "unchanged");
    if (!parser.parse(argc, argv))
        std::exit(1);
    if (parser.helpRequested())
        std::exit(0);

    {
        Result<void> faults =
            FaultInjector::instance().configureFromEnv();
        if (!faults.ok()) {
            std::fprintf(stderr, "CBWS_FAULT: %s\n",
                         faults.error().str().c_str());
            std::exit(1);
        }
    }

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
    if (parser.provided("checkpoint")) {
        g_checkpoint = parser.get("checkpoint");
        // Checkpointed benches drain gracefully on SIGINT/SIGTERM:
        // in-flight cells finish, the checkpoint is sealed, and the
        // process exits 130 — so an interrupted sweep never loses
        // completed cells (SIGKILL-resume is the tested hard case).
        installMatrixSignalHandlers();
    }
    const bool shard = parser.provided("shard");
    const bool merge = parser.provided("merge");
    if ((shard || merge) && !single_matrix)
        usageError("--shard/--merge: this bench does not run exactly "
                   "one matrix, so it cannot be split or merged");
    if (shard) {
        Result<MatrixShard> parsed = parseMatrixShard(parser.get("shard"));
        if (!parsed.ok())
            usageError("--shard: " + parsed.error().message);
        if (g_checkpoint.empty())
            usageError("--shard requires --checkpoint to hold the "
                       "shard's cells");
        g_shard = parsed.value();
    }
    if (merge) {
        if (shard || !g_checkpoint.empty())
            usageError("--merge cannot be combined with --shard or "
                       "--checkpoint");
        const std::string list = parser.get("merge");
        std::size_t pos = 0;
        while (pos <= list.size()) {
            std::size_t comma = list.find(',', pos);
            if (comma == std::string::npos)
                comma = list.size();
            if (comma == pos)
                usageError("--merge: empty checkpoint path in '" +
                           list + "'");
            g_merge.push_back(list.substr(pos, comma - pos));
            pos = comma + 1;
        }
    }
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
    g_progress = parser.getFlag("progress");
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
    options.shard = g_shard;
    options.mergePaths = g_merge;
    options.progress = g_progress;
    return options;
}

void
banner(const std::string &title, const std::string &paper_ref,
       std::uint64_t insts)
{
    if (g_shard.count > 1)
        return; // a shard run prints nothing; its merge has the report
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

ExperimentMatrix
fullMatrix(std::uint64_t insts)
{
    return runMatrix(allWorkloads(), allSchemeNames(),
                     systemConfig(), insts, 42, matrixOptions());
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
