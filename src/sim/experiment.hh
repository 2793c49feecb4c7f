/**
 * @file
 * Experiment matrix runner shared by the figure-regenerating benches:
 * every workload is synthesised once and replayed through every
 * prefetcher configuration, exactly how the paper compares schemes.
 *
 * The matrix is embarrassingly parallel — each (workload, prefetcher)
 * cell owns its complete simulated system and only shares the
 * read-only input trace — so runMatrix can fan the cells across a
 * thread pool. Results are bit-identical to a serial run for any job
 * count: every cell writes a preallocated slot, and nothing about a
 * simulation depends on which thread (or in what order) it ran. A
 * trace lives only while its row's cells run, so at most one trace
 * per worker is resident, whatever the matrix size.
 */

#ifndef CBWS_SIM_EXPERIMENT_HH
#define CBWS_SIM_EXPERIMENT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/result.hh"
#include "sim/simulator.hh"
#include "trace/tracecache.hh"
#include "workloads/workload.hh"

namespace cbws
{

/** Results for one workload across every prefetcher configuration. */
struct WorkloadRow
{
    std::string workload;
    bool memoryIntensive = false;
    std::vector<SimResult> byPrefetcher; ///< parallel to schemes
};

/** The full workloads x prefetchers matrix. */
struct ExperimentMatrix
{
    /** Registry scheme names, in column order. */
    std::vector<std::string> schemes;
    std::vector<WorkloadRow> rows;

    /** Most traces resident at once while runMatrix ran: each lives
     *  from its row's first simulated cell to its last, so this never
     *  exceeds the worker count (0 when no cell was simulated). */
    std::size_t peakLiveTraces = 0;

    /** Column of @p scheme (case-insensitive); panics when absent. */
    std::size_t column(const std::string &scheme) const;

    const SimResult &
    result(std::size_t row, const std::string &scheme) const;

    /** Arithmetic mean of @p metric over @p rows (MI subset or all). */
    template <typename Fn>
    double
    average(Fn metric, bool mi_only) const
    {
        double sum = 0.0;
        std::size_t n = 0;
        for (const auto &row : rows) {
            if (mi_only && !row.memoryIntensive)
                continue;
            sum += metric(row);
            ++n;
        }
        return n ? sum / static_cast<double>(n) : 0.0;
    }
};

/** Execution knobs of runMatrix (parallelism, trace reuse). */
struct MatrixOptions
{
    /**
     * Worker threads for the simulation cells; each row's first
     * simulated cell also synthesises its trace. 0 and 1 both run
     * serially. Any value yields bit-identical results.
     */
    unsigned jobs = 1;

    /** Optional on-disk trace cache consulted before synthesis. */
    TraceCache *traceCache = nullptr;

    /**
     * When non-empty, append each finished cell to this crash-safe
     * checkpoint file (sim/checkpoint.hh) and, on restart, load the
     * recorded cells instead of re-simulating them. The resumed
     * matrix is bit-identical to an uninterrupted run at any job
     * count. Opening a checkpoint written by a different experiment
     * (or schema version) is a fatal error.
     */
    std::string checkpointPath;
};

/**
 * Run the matrix: @p workloads x @p schemes (registry names).
 * @param max_insts per-run committed-instruction budget.
 *
 * Every cell runs in this process (restored from the checkpoint or
 * simulated), and the whole matrix is returned; errors are fatal().
 *
 * Scheme names and base_config.pfOpts are validated against the
 * registry before any simulation starts (fatal on unknown schemes,
 * unknown `--pf-opt` keys, or malformed values).
 *
 * When base_config.mem.numCores > 1 each cell becomes a rate-mode
 * multi-core run (every core replays its own copy of the workload's
 * trace through the shared L2/DRAM via simulateMulti); checkpoints
 * carry the core count — and any pf-opts — in their fingerprint so
 * differently-configured matrices can never cross-resume.
 */
ExperimentMatrix
runMatrix(const std::vector<WorkloadPtr> &workloads,
          const std::vector<std::string> &schemes,
          const SystemConfig &base_config, std::uint64_t max_insts,
          std::uint64_t seed = 42,
          const MatrixOptions &options = MatrixOptions());

/**
 * Instruction budget for the benches: the CBWS_BENCH_INSTS
 * environment variable, or @p fallback when unset. A value that is
 * not a positive plain-decimal integer is fatal().
 */
std::uint64_t benchInstructionBudget(std::uint64_t fallback = 120000);

} // namespace cbws

#endif // CBWS_SIM_EXPERIMENT_HH
