#include "sim/experiment.hh"

#include <atomic>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <strings.h>

#include "base/decimal.hh"
#include "base/faultinject.hh"
#include "base/logging.hh"
#include "base/profiler.hh"
#include "base/progress.hh"
#include "base/threadpool.hh"
#include "sim/checkpoint.hh"

namespace cbws
{

namespace
{

/** Set from the SIGINT/SIGTERM handler; checked at cell boundaries.
 *  Lock-free atomic, so the handler write is async-signal-safe. */
std::atomic<bool> g_matrix_interrupt{false};

extern "C" void
matrixSignalHandler(int)
{
    g_matrix_interrupt.store(true, std::memory_order_relaxed);
}

} // anonymous namespace

void
installMatrixSignalHandlers()
{
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = matrixSignalHandler;
    sigemptyset(&sa.sa_mask);
    // One-shot: the first signal requests the graceful drain, a
    // second one gets the default disposition and kills the process
    // outright — an escape hatch from a wedged cell.
    sa.sa_flags = SA_RESETHAND;
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);
}

void
requestMatrixInterrupt()
{
    g_matrix_interrupt.store(true, std::memory_order_relaxed);
}

bool
matrixInterruptRequested()
{
    return g_matrix_interrupt.load(std::memory_order_relaxed);
}

void
clearMatrixInterrupt()
{
    g_matrix_interrupt.store(false, std::memory_order_relaxed);
}

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

    const MatrixShard shard = options.shard;
    const bool sharded = shard.count > 1;
    if (shard.count == 0 || shard.index >= shard.count)
        fatal("runMatrix: shard %u/%u does not exist", shard.index,
              shard.count);
    if (sharded && options.checkpointPath.empty())
        fatal("runMatrix: a shard run needs a checkpoint to hold its "
              "cells (--shard requires --checkpoint)");
    if (!options.mergePaths.empty() &&
        (sharded || !options.checkpointPath.empty()))
        fatal("runMatrix: --merge reads finished shards; it cannot be "
              "combined with --shard or --checkpoint");

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

    // Merge mode: every cell comes from the shard checkpoints, so
    // nothing is synthesised or simulated.
    if (!options.mergePaths.empty()) {
        Result<std::vector<SimResult>> merged = mergeCheckpoints(
            options.mergePaths, header, workload_names, schemes);
        if (!merged.ok())
            fatal("runMatrix: merge: %s",
                  merged.error().str().c_str());
        std::vector<SimResult> cells = std::move(merged).value();
        for (std::size_t i = 0; i < num_cells; ++i)
            matrix.rows[i / num_kinds].byPrefetcher[i % num_kinds] =
                std::move(cells[i]);
        return matrix;
    }

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
    // Cells of another shard or restored from the checkpoint never
    // touch the trace, so a row without simulated cells is never
    // synthesised.
    auto owned = [&](std::size_t i) {
        return i % shard.count == shard.index;
    };
    struct RowTrace
    {
        std::mutex lock;
        bool ready = false; ///< trace synthesised or loaded
        Trace trace;        ///< read-only once ready
        std::atomic<std::size_t> pending{0}; ///< simulated cells left
    };
    std::vector<RowTrace> row_traces(num_workloads);
    std::size_t owned_cells = 0;
    for (std::size_t i = 0; i < num_cells; ++i) {
        if (!owned(i))
            continue;
        ++owned_cells;
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
    ProgressMeter meter("simulation", owned_cells, options.progress);
    auto cell = [&](std::size_t i) {
        if (!owned(i))
            return; // another shard's cell
        // Graceful interrupt: launch nothing new; in-flight cells
        // finish (and checkpoint) normally, then the drain below
        // seals the file.
        if (matrixInterruptRequested())
            return;
        const std::size_t w = i / num_kinds;
        const std::size_t k = i % num_kinds;
        if (checkpoint.isOpen()) {
            const SimResult *restored = checkpoint.find(
                matrix.rows[w].workload, schemes[k]);
            if (restored) {
                matrix.rows[w].byPrefetcher[k] = *restored;
                meter.advance(true);
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
            // Chaos hook: under CBWS_FAULT=cell-kill@n the process
            // SIGKILLs itself right after its n-th simulated cell is
            // durable — the deterministic stand-in for the kill -9
            // that resume must survive.
            if (FaultInjector::instance().shouldFire(
                    FaultSite::CellKill)) {
                checkpoint.sync();
                ::raise(SIGKILL);
            }
        }
        meter.addInstructions(res.core.instructions);
        matrix.rows[w].byPrefetcher[k] = std::move(res);
        meter.advance(false);
    };
    parallelFor(options.jobs, num_cells, cell);
    meter.finish();
    matrix.peakLiveTraces = peak_live_traces.load();
    // Seal: every appended cell is already flushed line-by-line, the
    // final fsync makes the tail durable against power loss too. This
    // is what guarantees an interrupted run or a finished shard never
    // loses a completed cell, so both leave the process only here.
    if (checkpoint.isOpen()) {
        Result<void> sealed = checkpoint.sync();
        if (!sealed.ok())
            warn("runMatrix: checkpoint seal failed (%s)",
                 sealed.error().str().c_str());
    }
    if (matrixInterruptRequested()) {
        if (checkpoint.isOpen())
            warn("runMatrix: interrupted; %zu of %zu cells sealed in "
                 "%s; rerun with the same checkpoint to resume",
                 checkpoint.cellCount(), num_cells,
                 options.checkpointPath.c_str());
        else
            warn("runMatrix: interrupted with no checkpoint; "
                 "completed cells are lost");
        std::exit(130);
    }
    if (sharded) {
        warn("runMatrix: shard %u/%u complete, %zu cells sealed in %s; "
             "--merge the shard checkpoints for the report",
             shard.index, shard.count, owned_cells,
             options.checkpointPath.c_str());
        std::exit(0);
    }
    return matrix;
}

Result<MatrixShard>
parseMatrixShard(const std::string &text)
{
    const std::size_t slash = text.find('/');
    auto number = [](const std::string &digits, unsigned &out) {
        // Digits only: no sign, no blanks, at most 9 of them, so the
        // value always fits an unsigned.
        if (digits.empty() || digits.size() > 9)
            return false;
        for (char c : digits)
            if (c < '0' || c > '9')
                return false;
        out = static_cast<unsigned>(std::stoul(digits));
        return true;
    };
    MatrixShard shard;
    if (slash == std::string::npos ||
        !number(text.substr(0, slash), shard.index) ||
        !number(text.substr(slash + 1), shard.count))
        return Error(Errc::InvalidArgument,
                     "shard '" + text + "' is not i/N");
    if (shard.count == 0 || shard.index >= shard.count)
        return Error(Errc::InvalidArgument,
                     "shard '" + text + "' needs 0 <= i < N");
    return shard;
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
