/**
 * @file
 * Shared pieces of the benchmark suite's two executables: the
 * workload definitions, trace set-up, the untraced cell runner, the
 * correctness gate and the result printers.
 *
 * cbws_bench measures the end-to-end metrics and touches only the
 * simulator's top-level API (Workload::generate, Trace, TraceCache,
 * simulate, simulateMulti, runMatrix), so refactors below that API
 * cannot break it. cbws_bench_trace additionally drives the layers
 * itself to time them (see cbws_bench_trace.cc).
 */

#ifndef CBWS_BENCH_SUITE_SUITE_HH
#define CBWS_BENCH_SUITE_SUITE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/simulator.hh"
#include "workloads/workload.hh"

namespace cbws
{

class Checkpoint;
class MetricsRegistry;

namespace suite
{

/** Worker threads every workload runs its cells on. */
constexpr unsigned Jobs = 2;

/** One workload: a kernels x schemes matrix, run one way. */
struct WorkloadSpec
{
    std::string name;
    std::vector<std::string> kernels; ///< workload registry names
    std::vector<std::string> schemes; ///< prefetcher registry names
    std::string dram;                 ///< DRAM backend registry name
    unsigned cores = 1;               ///< >1: rate mode, simulateMulti
    std::uint64_t insts = 0;          ///< per-core budget (default)
    /** Cells run through runMatrix (trace cache + checkpoint + pool,
     *  quarter-budget warm-up) instead of one simulate() per cell. */
    bool viaRunMatrix = false;

    std::size_t cells() const { return kernels.size() * schemes.size(); }
    /** Warm-up the cells run with (runMatrix fixes budget / 4). */
    std::uint64_t warmup(std::uint64_t budget) const
    {
        return viaRunMatrix ? budget / 4 : 0;
    }
};

/** The four workloads, in the order `run.py` runs them. */
const std::vector<WorkloadSpec> &workloadSpecs();

/** Command line shared by both executables. */
struct Options
{
    const WorkloadSpec *spec = nullptr;
    std::uint64_t seed = 42;
    double seconds = 30.0;
    /** Per-core instruction budget (CBWS_BENCH_INSTS or default). */
    std::uint64_t insts = 0;
    /** CBWS_BENCH_INSTS replaced the default budget: the committed
     *  digests do not apply. */
    bool budgetOverridden = false;
    std::string jsonPath;    ///< BENCH_suite[_trace].json destination
    std::string expectedDir; ///< committed per-cell digests
    std::string scratchDir;  ///< trace caches and checkpoints
};

/** Parse argv; prints usage and exits on --help or bad input. */
Options parseOptions(int argc, char **argv, const char *program,
                     const char *description,
                     const char *default_json);

/**
 * Pin glibc's allocator so that freed memory stays resident and buffers
 * up to 32 MiB come from the heap. Left adaptive, the allocator decides
 * from its history whether a set-up or a cell reuses resident pages or
 * faults in fresh ones, and set-up times split into two modes about 2x
 * apart. Call before any timing; a no-op elsewhere than glibc.
 */
void keepFreedMemoryResident();

/** Monotonic nanoseconds since the first call. */
std::uint64_t nowNs();

/** Seconds between two nowNs() readings. */
inline double
secondsBetween(std::uint64_t begin_ns, std::uint64_t end_ns)
{
    return static_cast<double>(end_ns - begin_ns) * 1e-9;
}

/** a / b, or 0 when b is 0 (every ratio metric goes through this). */
inline double
ratio(double a, double b)
{
    return b != 0.0 ? a / b : 0.0;
}

/** Create @p dir (and parents); fatal on failure. */
void makeDirs(const std::string &dir);

/** Remove @p path recursively (missing is fine). */
void removeAll(const std::string &path);

/** Size of a regular file or the sum over a directory tree. */
std::uint64_t bytesOnDisk(const std::string &path);

/** nowNs() stamps of one kernel's set-up steps; a skipped step ends
 *  where it began. */
struct SetupStamps
{
    std::uint64_t begin = 0;
    std::uint64_t generated = 0;
    std::uint64_t stored = 0;  ///< written to the trace cache
    std::uint64_t decoded = 0; ///< SoA decode built
};

/** Traces of a workload's kernels, plus what producing them cost. */
struct Inputs
{
    std::vector<WorkloadPtr> kernels;
    /** Decoded traces, parallel to kernels (empty when dropped). */
    std::vector<Trace> traces;
    std::vector<SetupStamps> stamps; ///< parallel to kernels
    /** Primed trace cache runMatrix reads (viaRunMatrix only). */
    std::string cacheDir;
    std::uint64_t beginNs = 0;
    std::uint64_t endNs = 0;

    double seconds() const { return secondsBetween(beginNs, endNs); }
};

/**
 * Synthesise every kernel's trace. runMatrix workloads then store each
 * trace into a fresh cache under @p cache_dir (the priming writes)
 * and, unless @p keep_traces, drop the in-memory copies; the others
 * build the SoA decode, which concurrent cells may not race to build.
 */
Inputs setUp(const WorkloadSpec &spec, const Options &opts,
             const std::string &cache_dir, bool keep_traces);

/** One simulated configuration for cell (kernel, scheme). */
SystemConfig cellConfig(const WorkloadSpec &spec, std::size_t scheme);

/** Results of one pass over a workload's cells, kernel-major. */
struct Pass
{
    std::vector<SimResult> cells;
    /** Per-cell wall time; empty for runMatrix passes. */
    std::vector<double> cellSeconds;
    double seconds = 0.0;
    /** runMatrix loads that missed the primed cache (and so were
     *  synthesised again instead). */
    std::uint64_t traceCacheMisses = 0;
};

/**
 * Run every cell once, untraced, on Jobs workers: simulate() (with
 * the spec's warm-up) or simulateMulti() per cell. Each result is
 * appended to @p checkpoint when one is given; each cell's scheme
 * gauges (SimProbes::schemeMetrics) go to (*@p scheme_metrics)[cell]
 * when that is given, sized to the cells.
 */
Pass runCells(const WorkloadSpec &spec, const Options &opts,
              const Inputs &inputs, Checkpoint *checkpoint = nullptr,
              std::vector<MetricsRegistry> *scheme_metrics = nullptr);

/** Run every cell once through runMatrix at Jobs workers, reading the
 *  primed trace cache and appending to a fresh checkpoint at
 *  @p checkpoint_path. */
Pass runMatrixPass(const WorkloadSpec &spec, const Options &opts,
                   const Inputs &inputs,
                   const std::string &checkpoint_path);

/** Committed instructions of a pass's cells. */
std::uint64_t committedInsts(const std::vector<SimResult> &cells);

/** FNV-1a over the fixed list of result counters the gate pins. */
std::uint64_t digest(const SimResult &result);

/** True when two results agree on every counter. */
bool sameResult(const SimResult &a, const SimResult &b);

/**
 * The correctness gate behind `failed`: every cell is checked against
 * the committed digest (when one applies), against the first pass
 * (determinism), against the prefetch-lifecycle conservation laws
 * (warm-up 0 cells) and for a full instruction budget.
 */
class Gate
{
  public:
    Gate(const WorkloadSpec &spec, const Options &opts);

    /** Check one pass; the first pass becomes the reference. */
    void check(const std::vector<SimResult> &cells, const char *what);

    /** Count one failed cell with a reason. */
    void fail(const std::string &why);

    /** Count cells checked elsewhere (e.g. traced == untraced). */
    void attempt(std::size_t cells) { attempted_ += cells; }

    /**
     * With CBWS_UPDATE_GOLDEN set (and the default budget), rewrite
     * this workload's lines of the seed's digest file from the
     * reference pass. Returns true when it wrote.
     */
    bool updateGolden() const;

    std::size_t attempted() const { return attempted_; }
    std::size_t failed() const { return failed_; }
    bool digestsChecked() const { return !expected_.empty(); }
    const std::vector<std::string> &messages() const { return messages_; }

  private:
    std::string cellName(std::size_t i) const;
    std::string expectedPath() const;

    const WorkloadSpec &spec_;
    const Options &opts_;
    std::map<std::string, std::uint64_t> expected_;
    std::vector<std::uint64_t> reference_;
    std::size_t attempted_ = 0;
    std::size_t failed_ = 0;
    std::vector<std::string> messages_;
};

/** Geomean over kernels of IPC(CBWS+SMS) / IPC(SMS); @p mi_only
 *  restricts it to the paper's memory-intensive kernels. */
double speedupCbwsSmsVsSms(const WorkloadSpec &spec,
                           const std::vector<SimResult> &cells,
                           const Inputs &inputs, bool mi_only);

/** Peak resident set of this process, MiB. */
double peakRssMb();

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);

/** Nearest-rank percentile @p p in [0, 100] of @p values. */
double percentile(std::vector<double> values, double p);

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * Print each metric as `workload metric value unit`, write the
 * BENCH_suite JSON file (@p extra_json: further `"key": value` members,
 * each starting with a comma) and print the one-line result object.
 */
void report(const Options &opts, const std::vector<Metric> &metrics,
            const Gate &gate, const std::string &extra_json);

/** A double as JSON, all digits (0 for a non-finite value). */
std::string jsonNumber(double v);

/** A string as a JSON literal. */
std::string jsonString(const std::string &s);

} // namespace suite
} // namespace cbws

#endif // CBWS_BENCH_SUITE_SUITE_HH
