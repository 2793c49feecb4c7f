/**
 * @file
 * Simulator throughput harness: times the full experiment matrix
 * serially and with the configured worker count, reports simulated
 * (committed) instructions per wall-clock second for both, and checks
 * the two result sets are bit-identical. Machine-readable results go
 * to BENCH_sim_throughput.json for CI trend tracking, stamped with
 * build provenance; run with --profile to embed the host-side
 * per-phase breakdown explaining where the wall time went, and the
 * process's peak resident memory next to the parallel leg's most
 * traces resident at once.
 *
 * The serial leg always runs with jobs=1; the parallel leg uses
 * --jobs, falling back to the hardware thread count. When
 * a trace cache is configured it is primed before timing starts, so
 * neither leg pays synthesis costs the other does not. --checkpoint is
 * refused: later legs would restore the cells instead of simulating.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include <sys/resource.h>

#include "base/json.hh"
#include "base/profiler.hh"
#include "base/threadpool.hh"
#include "base/version.hh"
#include "common.hh"
#include "workloads/registry.hh"

using namespace cbws;

namespace
{

double
seconds(std::chrono::steady_clock::time_point begin,
        std::chrono::steady_clock::time_point end)
{
    return std::chrono::duration<double>(end - begin).count();
}

/** Committed (post-warmup) instructions summed over every cell. */
std::uint64_t
simulatedInstructions(const ExperimentMatrix &matrix)
{
    std::uint64_t total = 0;
    for (const auto &row : matrix.rows)
        for (const auto &res : row.byPrefetcher)
            total += res.core.instructions;
    return total;
}

/** Bitwise comparison of two runs of the same matrix. */
bool
identicalResults(const ExperimentMatrix &a, const ExperimentMatrix &b)
{
    if (a.rows.size() != b.rows.size())
        return false;
    for (std::size_t r = 0; r < a.rows.size(); ++r) {
        const auto &ra = a.rows[r].byPrefetcher;
        const auto &rb = b.rows[r].byPrefetcher;
        if (ra.size() != rb.size())
            return false;
        for (std::size_t k = 0; k < ra.size(); ++k) {
            if (ra[k].workload != rb[k].workload ||
                ra[k].prefetcher != rb[k].prefetcher ||
                ra[k].prefetcherStorageBits !=
                    rb[k].prefetcherStorageBits ||
                std::memcmp(&ra[k].core, &rb[k].core,
                            sizeof(ra[k].core)) != 0 ||
                std::memcmp(&ra[k].mem, &rb[k].mem,
                            sizeof(ra[k].mem)) != 0) {
                return false;
            }
        }
    }
    return true;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bench::init(argc, argv);
    MatrixOptions opts = bench::matrixOptions();
    // Each leg must simulate every cell: with a checkpoint the later
    // legs would restore the first leg's cells and time a file read.
    if (!opts.checkpointPath.empty()) {
        std::fprintf(stderr,
                     "--checkpoint: throughput times the simulation of "
                     "every cell, but the later legs would restore the "
                     "first leg's cells from the checkpoint and report "
                     "a false speedup\n");
        return 1;
    }

    const std::uint64_t insts = benchInstructionBudget(60000);
    bench::banner("Simulator throughput (wall-clock, full matrix)",
                  "the methodology (Sec. 5)", insts);

    const unsigned parallel_jobs =
        opts.jobs ? opts.jobs : ThreadPool::hardwareJobs();

    const auto workloads = allWorkloads();
    const auto schemes = allSchemeNames();
    const std::size_t cells = workloads.size() * schemes.size();
    SystemConfig config; // Table II defaults

    // Prime the trace cache so both timed legs read identical inputs
    // with identical effort (all hits, or no cache at all).
    if (opts.traceCache) {
        WorkloadParams params;
        params.maxInstructions = insts;
        params.seed = 42;
        for (const auto &wl : workloads) {
            const TraceCache::Key key{wl->name(), insts, 42};
            Trace trace;
            if (opts.traceCache->load(key, trace).ok())
                continue;
            trace.reserve(insts + 512);
            wl->generate(trace, params);
            opts.traceCache->store(key, trace);
        }
        std::printf("Trace cache primed: %s\n\n",
                    opts.traceCache->directory().c_str());
    }

    std::printf("Matrix: %zu workloads x %zu prefetchers = %zu "
                "cells\n\n",
                workloads.size(), schemes.size(), cells);

    MatrixOptions serial_opts = opts;
    serial_opts.jobs = 1;
    auto t0 = std::chrono::steady_clock::now();
    const ExperimentMatrix serial =
        runMatrix(workloads, schemes, config, insts, 42, serial_opts);
    auto t1 = std::chrono::steady_clock::now();
    const double serial_s = seconds(t0, t1);
    const std::uint64_t sim_insts = simulatedInstructions(serial);
    const double serial_ips =
        serial_s > 0 ? static_cast<double>(sim_insts) / serial_s : 0;
    std::printf("serial    jobs=1    %8.2f s   %12.0f inst/s\n",
                serial_s, serial_ips);

    const unsigned hardware_threads =
        std::thread::hardware_concurrency();

    // Fixed jobs=2 scaling leg: a stable point for the CI scaling
    // gate, independent of how many threads the runner happens to
    // have. Skipped on single-threaded hosts, where "scaling" would
    // only measure oversubscription.
    bool ran_jobs2 = false;
    double jobs2_s = 0.0, jobs2_ips = 0.0;
    bool jobs2_identical = true;
    if (hardware_threads >= 2) {
        MatrixOptions jobs2_opts = opts;
        jobs2_opts.jobs = 2;
        t0 = std::chrono::steady_clock::now();
        const ExperimentMatrix jobs2 = runMatrix(
            workloads, schemes, config, insts, 42, jobs2_opts);
        t1 = std::chrono::steady_clock::now();
        jobs2_s = seconds(t0, t1);
        jobs2_ips = jobs2_s > 0
            ? static_cast<double>(sim_insts) / jobs2_s : 0;
        ran_jobs2 = true;
        jobs2_identical = identicalResults(serial, jobs2);
        std::printf("scaling   jobs=2    %8.2f s   %12.0f inst/s\n",
                    jobs2_s, jobs2_ips);
    }

    MatrixOptions parallel_opts = opts;
    parallel_opts.jobs = parallel_jobs;
    t0 = std::chrono::steady_clock::now();
    const ExperimentMatrix parallel = runMatrix(
        workloads, schemes, config, insts, 42, parallel_opts);
    t1 = std::chrono::steady_clock::now();
    const double parallel_s = seconds(t0, t1);
    const double parallel_ips =
        parallel_s > 0 ? static_cast<double>(sim_insts) / parallel_s
                       : 0;
    std::printf("parallel  jobs=%-4u %8.2f s   %12.0f inst/s\n",
                parallel_jobs, parallel_s, parallel_ips);

    const double speedup =
        parallel_s > 0 ? serial_s / parallel_s : 0;
    const double jobs2_speedup =
        ran_jobs2 && jobs2_s > 0 ? serial_s / jobs2_s : 0;
    const bool identical =
        identicalResults(serial, parallel) && jobs2_identical;
    if (ran_jobs2)
        std::printf("\njobs=2 speedup: %.2fx", jobs2_speedup);
    std::printf("\nspeedup: %.2fx   results identical: %s\n", speedup,
                identical ? "yes" : "NO (determinism bug!)");

    JsonWriter w;
    w.beginObject();
    w.field("bench", "sim_throughput");
    w.key("provenance");
    writeProvenance(w);
    w.field("instructions_per_run", insts);
    w.field("cells", static_cast<std::uint64_t>(cells));
    w.field("simulated_instructions", sim_insts);
    w.field("hardware_threads",
            static_cast<std::uint64_t>(hardware_threads));
    w.key("serial");
    w.beginObject();
    w.field("jobs", static_cast<std::uint64_t>(1));
    w.field("seconds", serial_s);
    w.field("instructions_per_second", serial_ips);
    w.endObject();
    if (ran_jobs2) {
        w.key("jobs2");
        w.beginObject();
        w.field("jobs", static_cast<std::uint64_t>(2));
        w.field("seconds", jobs2_s);
        w.field("instructions_per_second", jobs2_ips);
        w.field("speedup", jobs2_speedup);
        w.endObject();
    }
    w.key("parallel");
    w.beginObject();
    w.field("jobs", static_cast<std::uint64_t>(parallel_jobs));
    w.field("seconds", parallel_s);
    w.field("instructions_per_second", parallel_ips);
    w.field("peak_live_traces",
            static_cast<std::uint64_t>(parallel.peakLiveTraces));
    w.endObject();
    w.field("speedup", speedup);
    w.field("identical", identical);
    struct rusage usage;
    ::getrusage(RUSAGE_SELF, &usage);
    w.field("peak_rss_mb",
            static_cast<double>(usage.ru_maxrss) / 1024.0); // KiB
    w.field("trace_cache",
            opts.traceCache ? opts.traceCache->directory() : "");
    if (prof::enabled()) {
        // Run with --profile: embed the host-side phase/worker
        // breakdown covering all timed legs, so the trend artifact
        // explains *where* the wall time went, not just how much.
        const prof::Report rep = prof::report();
        w.key("profile");
        prof::writeJson(w, rep);
        // Derived per-phase throughput: simulated instructions per
        // exclusive second spent in each phase, over every timed leg.
        // "How fast would the simulator be if only this phase
        // existed" — the inverse directly ranks optimization targets.
        const unsigned legs = 2u + (ran_jobs2 ? 1u : 0u);
        const double total_insts =
            static_cast<double>(sim_insts) * legs;
        w.key("phase_instructions_per_second");
        w.beginObject();
        for (unsigned p = 0; p < prof::NumPhases; ++p) {
            if (rep.phaseSeconds[p] <= 0.0)
                continue;
            w.field(prof::toString(static_cast<prof::Phase>(p)),
                    total_insts / rep.phaseSeconds[p]);
        }
        w.endObject();
    }
    w.endObject();

    std::FILE *json = std::fopen("BENCH_sim_throughput.json", "w");
    if (json) {
        std::fprintf(json, "%s\n", w.str().c_str());
        std::fclose(json);
        std::printf("wrote BENCH_sim_throughput.json\n");
    } else {
        std::fprintf(stderr,
                     "could not write BENCH_sim_throughput.json\n");
    }
    return identical ? 0 : 1;
}
