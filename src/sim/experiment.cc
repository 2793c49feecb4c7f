#include "sim/experiment.hh"

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <strings.h>

#include "base/decimal.hh"
#include "base/logging.hh"
#include "base/profiler.hh"
#include "base/threadpool.hh"
#include "sim/checkpoint.hh"

namespace cbws
{

std::size_t
ExperimentMatrix::column(const std::string &scheme) const
{
    for (std::size_t k = 0; k < schemes.size(); ++k)
        if (schemes[k].size() == scheme.size() &&
            strcasecmp(schemes[k].c_str(), scheme.c_str()) == 0)
            return k;
    panic("scheme '%s' not in matrix", scheme.c_str());
}

const SimResult &
ExperimentMatrix::result(std::size_t row,
                         const std::string &scheme) const
{
    return rows.at(row).byPrefetcher.at(column(scheme));
}

ExperimentMatrix
runMatrix(const std::vector<WorkloadPtr> &workloads,
          const std::vector<std::string> &scheme_args,
          const SystemConfig &base_config, std::uint64_t max_insts,
          std::uint64_t seed, const MatrixOptions &options)
{
    // Fail fast, before any trace is synthesised: unknown schemes or
    // bad --pf-opt strings are user errors, not per-cell surprises.
    {
        Result<void> valid = prefetcherRegistry().validateOptions(
            scheme_args, base_config.pfOpts);
        if (!valid.ok())
            fatal("runMatrix: %s", valid.error().str().c_str());
    }
    // Canonicalise to the registry's display names ("cbws+sms" ->
    // "CBWS+SMS"): result() lookups, checkpoint cell keys and report
    // columns all use the canonical spelling.
    std::vector<std::string> schemes;
    schemes.reserve(scheme_args.size());
    for (const auto &name : scheme_args)
        schemes.push_back(prefetcherRegistry().canonicalName(name));

    ExperimentMatrix matrix;
    matrix.schemes = schemes;

    WorkloadParams params;
    params.maxInstructions = max_insts;
    params.seed = seed;

    const std::size_t num_workloads = workloads.size();
    const std::size_t num_kinds = schemes.size();
    const std::size_t num_cells = num_workloads * num_kinds;

    std::vector<std::string> workload_names;
    matrix.rows.resize(num_workloads);
    for (std::size_t w = 0; w < num_workloads; ++w) {
        workload_names.push_back(workloads[w]->name());
        matrix.rows[w].workload = workloads[w]->name();
        matrix.rows[w].memoryIntensive =
            workloads[w]->memoryIntensive();
        matrix.rows[w].byPrefetcher.resize(num_kinds);
    }
    const Checkpoint::Header header = matrixCheckpointHeader(
        workload_names, schemes, base_config, max_insts, seed);

    // Crash-safe resume: cells already recorded in the checkpoint are
    // loaded instead of re-simulated.
    Checkpoint checkpoint;
    if (!options.checkpointPath.empty()) {
        Result<void> opened =
            checkpoint.open(options.checkpointPath, header);
        // A bad checkpoint is a user error (wrong path or stale
        // file), never something to silently run over.
        if (!opened.ok())
            fatal("runMatrix: %s", opened.error().str().c_str());
        // Status goes to stderr (via warn) so resumed runs keep
        // byte-identical stdout reports — the resume acceptance
        // check literally diffs them.
        if (checkpoint.resumedCells())
            warn("runMatrix: resuming, %zu of %zu cells restored "
                 "from %s",
                 checkpoint.resumedCells(), num_cells,
                 options.checkpointPath.c_str());
    }

    // A row's trace lives from its first simulated cell to its last:
    // the first synthesises it (or loads it from the trace cache)
    // under the row's lock, the last frees it. parallelFor hands out
    // cells in row-major order, so at most `jobs` traces are live.
    // Cells restored from the checkpoint never touch the trace, so a
    // row without simulated cells is never synthesised.
    struct RowTrace
    {
        std::mutex lock;
        bool ready = false; ///< trace synthesised or loaded
        Trace trace;        ///< read-only once ready
        std::atomic<std::size_t> pending{0}; ///< simulated cells left
    };
    std::vector<RowTrace> row_traces(num_workloads);
    for (std::size_t i = 0; i < num_cells; ++i) {
        const std::size_t w = i / num_kinds;
        if (!checkpoint.find(workload_names[w], schemes[i % num_kinds]))
            ++row_traces[w].pending;
    }
    std::atomic<std::size_t> live_traces{0};
    std::atomic<std::size_t> peak_live_traces{0};

    // The workloads x kinds cells, each an independent simulated
    // system replaying its row's shared read-only trace into its
    // preassigned result slot. A quarter of the budget warms caches
    // and predictors (the paper fast-forwards past initialisation
    // instead).
    const std::uint64_t warmup = max_insts / 4;
    auto cell = [&](std::size_t i) {
        const std::size_t w = i / num_kinds;
        const std::size_t k = i % num_kinds;
        if (checkpoint.isOpen()) {
            const SimResult *restored = checkpoint.find(
                matrix.rows[w].workload, schemes[k]);
            if (restored) {
                matrix.rows[w].byPrefetcher[k] = *restored;
                return;
            }
        }
        RowTrace &row = row_traces[w];
        {
            std::lock_guard<std::mutex> hold(row.lock);
            if (!row.ready) {
                const TraceCache::Key key{workload_names[w], max_insts,
                                          seed};
                if (!options.traceCache ||
                    !options.traceCache->load(key, row.trace).ok()) {
                    {
                        PROF_SCOPE(prof::Phase::TraceSynthesis);
                        row.trace.reserve(max_insts + 512);
                        workloads[w]->generate(row.trace, params);
                    }
                    if (options.traceCache)
                        options.traceCache->store(key, row.trace);
                }
                row.ready = true;
                const std::size_t live = ++live_traces;
                std::size_t peak = peak_live_traces.load();
                while (live > peak &&
                       !peak_live_traces.compare_exchange_weak(peak,
                                                               live))
                    ;
            }
        }
        SystemConfig config = base_config;
        config.scheme = schemes[k];
        // Every core replays its own copy of the workload's trace;
        // above one core this is rate mode over the shared L2/DRAM.
        const std::vector<const Trace *> core_traces(
            config.mem.numCores, &row.trace);
        const std::vector<std::string> core_names(
            config.mem.numCores, matrix.rows[w].workload);
        SimResult res = simulateMulti(core_traces, core_names, config,
                                      max_insts, SimProbes(), warmup);
        if (--row.pending == 0) {
            row.trace = Trace();
            --live_traces;
        }
        res.workload = matrix.rows[w].workload;
        if (checkpoint.isOpen()) {
            Result<void> appended = checkpoint.append(res);
            if (!appended.ok())
                warn("runMatrix: cell (%s, %s) not checkpointed "
                     "(%s); continuing without it",
                     res.workload.c_str(), res.prefetcher.c_str(),
                     appended.error().str().c_str());
        }
        matrix.rows[w].byPrefetcher[k] = std::move(res);
    };
    parallelFor(options.jobs, num_cells, cell);
    matrix.peakLiveTraces = peak_live_traces.load();
    // Seal: every appended cell is already flushed line by line, so a
    // killed run loses at most its in-flight cells; the final fsync
    // makes the tail durable against power loss too.
    if (checkpoint.isOpen()) {
        Result<void> sealed = checkpoint.sync();
        if (!sealed.ok())
            warn("runMatrix: checkpoint seal failed (%s)",
                 sealed.error().str().c_str());
    }
    return matrix;
}

std::uint64_t
benchInstructionBudget(std::uint64_t fallback)
{
    const char *env = std::getenv("CBWS_BENCH_INSTS");
    if (!env)
        return fallback;
    std::uint64_t insts = 0;
    if (!parseDecimal(env, insts) || insts == 0)
        fatal("CBWS_BENCH_INSTS='%s' is not a positive decimal "
              "instruction count",
              env);
    return insts;
}

} // namespace cbws
