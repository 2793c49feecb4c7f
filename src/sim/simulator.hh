/**
 * @file
 * Top-level simulation driver: wires the OoO core, the memory
 * hierarchy and the configured prefetcher together and reports the
 * metrics the paper's figures are built from.
 */

#ifndef CBWS_SIM_SIMULATOR_HH
#define CBWS_SIM_SIMULATOR_HH

#include <string>
#include <vector>

#include "base/stats.hh"
#include "cpu/core.hh"
#include "mem/hierarchy.hh"
#include "sim/config.hh"
#include "workloads/workload.hh"

namespace cbws
{

/** Per-core slice of a multi-core simulation run. */
struct CoreSliceResult
{
    /** Workload trace this core executed. */
    std::string workload;
    CoreStats core;
    CoreMemStats mem;

    double ipc() const { return core.ipc(); }

    /** This core's misses-per-kilo-instruction in the shared LLC. */
    double
    mpki() const
    {
        return core.instructions
                   ? 1000.0 * static_cast<double>(mem.llcDemandMisses) /
                     static_cast<double>(core.instructions)
                   : 0.0;
    }

    bool operator==(const CoreSliceResult &) const = default;
};

/** Everything measured by one simulation run. */
struct SimResult
{
    std::string workload;
    std::string prefetcher;
    /** DRAM backend the run used (registry name; "fixed" default). */
    std::string dramBackend = "fixed";
    /** Cores simulated (1 = the paper's single-core system). */
    unsigned cores = 1;
    CoreStats core;
    HierarchyStats mem;
    /** Per-core slices; empty unless cores > 1. In multi-core runs
     *  `core` holds the aggregate (instructions summed, cycles =
     *  slowest core) and `workload` joins the per-core names. */
    std::vector<CoreSliceResult> perCore;
    std::uint64_t prefetcherStorageBits = 0;

    double ipc() const { return core.ipc(); }

    /** Last-level-cache misses per kilo-instruction (Fig. 12). */
    double
    mpki() const
    {
        return core.instructions
                   ? 1000.0 * static_cast<double>(mem.llcDemandMisses) /
                     static_cast<double>(core.instructions)
                   : 0.0;
    }

    /** Fraction of demand L2 accesses in @p cls (Fig. 13). */
    double
    classFraction(DemandClass cls) const
    {
        return mem.demandL2Accesses
                   ? static_cast<double>(mem.classCount(cls)) /
                     static_cast<double>(mem.demandL2Accesses)
                   : 0.0;
    }

    /** Wrong prefetches as a fraction of demand L2 accesses. */
    double
    wrongFraction() const
    {
        return mem.demandL2Accesses
                   ? static_cast<double>(mem.wrongPrefetches) /
                     static_cast<double>(mem.demandL2Accesses)
                   : 0.0;
    }

    /** IPC per DRAM byte read (Fig. 15, before normalisation). */
    double
    perfPerByte() const
    {
        return mem.dramBytesRead
                   ? ipc() / static_cast<double>(mem.dramBytesRead)
                   : 0.0;
    }

    /** Exact equality of every field (resume and determinism tests). */
    bool operator==(const SimResult &) const = default;
};

class MetricsRegistry;
class TraceSink;

/** Optional instrumentation attached to a run. */
struct SimProbes
{
    /** Samples the identity of every 1-step CBWS differential
     *  (Fig. 5); only honoured by CBWS-based configurations. */
    FrequencyCounter *differentials = nullptr;

    /** Timeline-event sink (e.g., the Chrome trace exporter);
     *  attached to the hierarchy and the core for the run. */
    TraceSink *trace = nullptr;

    /**
     * When set, the run's prefetcher(s) register their scheme-internal
     * gauges here at the end of the run, under "pf.scheme" (multi-core
     * runs use "coreN.pf.scheme" per instance). Scheme gauges live
     * outside SimResult on purpose: they never enter the checkpoint or
     * report serialisation, so enabling them cannot perturb goldens.
     */
    MetricsRegistry *schemeMetrics = nullptr;
};

/**
 * Run @p trace through a single-core system configured by @p config:
 * simulateMulti() with one trace and an empty workload name.
 *
 * @param warmup_insts committed instructions whose statistics are
 *        discarded (caches and predictors stay warm) — stands in for
 *        the paper's region-of-interest fast-forwarding.
 */
SimResult simulate(const Trace &trace, const SystemConfig &config,
                   std::uint64_t max_insts,
                   const SimProbes &probes = SimProbes(),
                   std::uint64_t warmup_insts = 0);

/**
 * Convenience wrapper: synthesise @p workload's trace, then simulate
 * it. max_insts defaults to the workload's generation budget.
 */
SimResult simulateWorkload(const Workload &workload,
                           const SystemConfig &config,
                           const WorkloadParams &params,
                           const SimProbes &probes = SimProbes(),
                           std::uint64_t warmup_insts = 0);

/**
 * The simulation driver: one core per entry of @p traces (with the
 * matching display name in @p workload_names), all sharing the L2 +
 * DRAM backend of one Hierarchy, each with a private prefetcher
 * instance. Cores are stepped in lockstep by runCores(), core 0 first
 * each cycle, so results are deterministic. config.mem.numCores is
 * overridden to traces.size(). One trace is the single-core system
 * (what simulate() runs); more than one requires the out-of-order
 * core model.
 *
 * @param warmup_insts per-core warmup window; the shared hierarchy
 *        statistics reset when the *last* core crosses its boundary
 *        (a core whose trace ends first counts as crossed, unless it
 *        is the only core).
 */
SimResult simulateMulti(const std::vector<const Trace *> &traces,
                        const std::vector<std::string> &workload_names,
                        const SystemConfig &config,
                        std::uint64_t max_insts,
                        const SimProbes &probes = SimProbes(),
                        std::uint64_t warmup_insts = 0);

} // namespace cbws

#endif // CBWS_SIM_SIMULATOR_HH
