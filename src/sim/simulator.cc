#include "sim/simulator.hh"

#include <algorithm>

#include "base/logging.hh"
#include "base/profiler.hh"
#include "prefetch/addon.hh"

namespace cbws
{

namespace
{

/** Bridges a Prefetcher's requests into the hierarchy. */
class HierarchySink : public PrefetchSink
{
  public:
    explicit HierarchySink(Hierarchy &mem, unsigned core = 0)
        : mem_(mem), core_(core)
    {
    }

    void
    issuePrefetch(LineAddr line, PfSource src) override
    {
        mem_.enqueuePrefetch(line, src, core_);
    }

    bool
    isCached(LineAddr line) const override
    {
        return mem_.isCachedOrInFlightL2(line);
    }

  private:
    Hierarchy &mem_;
    unsigned core_;
};

/** The CBWS component of a prefetcher, if it has one. */
CbwsPrefetcher *
cbwsComponent(Prefetcher *prefetcher)
{
    if (auto *p = dynamic_cast<CbwsPrefetcher *>(prefetcher))
        return p;
    if (auto *a = dynamic_cast<CbwsAddOnPrefetcher *>(prefetcher))
        return &a->cbws();
    return nullptr;
}

/**
 * Commit-hook class mask for a prefetcher training at @p stages: its
 * commit hook acts only on the memory retires and block markers of
 * the stages it declares, so every other retire skips the
 * std::function dispatch. 0 when it trains at neither.
 */
std::uint32_t
trainingCommitMask(PfStageMask stages)
{
    std::uint32_t mask = 0;
    if (stages & TrainsAtCommit)
        mask |= OooCore::classBit(InstClass::Load) |
                OooCore::classBit(InstClass::Store);
    if (stages & TrainsOnBlocks)
        mask |= OooCore::classBit(InstClass::BlockBegin) |
                OooCore::classBit(InstClass::BlockEnd);
    return mask;
}

PrefetchContext
contextOf(const TraceRecord &rec, const AccessOutcome &out)
{
    PrefetchContext ctx;
    ctx.pc = rec.pc;
    ctx.addr = rec.effAddr;
    ctx.line = rec.line();
    ctx.isWrite = rec.cls == InstClass::Store;
    ctx.l1Hit = out.l1Hit;
    ctx.l2Miss = out.cls == DemandClass::Shorter ||
                 out.cls == DemandClass::NonTimely ||
                 out.cls == DemandClass::Missing;
    return ctx;
}

/** The hooks that train one core's prefetcher. */
struct CoreHooks
{
    OooCore::CommitHook commit;
    OooCore::AccessHook access;
    std::function<void(Cycle)> warmup;
};

} // anonymous namespace

SimResult
simulate(const Trace &trace, const SystemConfig &config,
         std::uint64_t max_insts, const SimProbes &probes,
         std::uint64_t warmup_insts)
{
    return simulateMulti({&trace}, {std::string()}, config, max_insts,
                         probes, warmup_insts);
}

SimResult
simulateMulti(const std::vector<const Trace *> &traces,
              const std::vector<std::string> &workload_names,
              const SystemConfig &config, std::uint64_t max_insts,
              const SimProbes &probes, std::uint64_t warmup_insts)
{
    fatal_if(traces.empty(), "simulateMulti: no traces");
    fatal_if(workload_names.size() != traces.size(),
             "simulateMulti: %zu traces but %zu workload names",
             traces.size(), workload_names.size());
    const unsigned n = static_cast<unsigned>(traces.size());

    HierarchyParams mem_params = config.mem;
    mem_params.numCores = n;
    Hierarchy mem(mem_params);
    if (probes.trace)
        mem.setTraceSink(probes.trace);

    // Private prefetcher instance and core-tagged sink per core.
    std::vector<std::unique_ptr<Prefetcher>> prefetchers;
    std::vector<std::unique_ptr<HierarchySink>> sinks;
    for (unsigned c = 0; c < n; ++c) {
        prefetchers.push_back(makePrefetcher(config));
        sinks.push_back(std::make_unique<HierarchySink>(mem, c));
    }

    // The differential probe attaches to core 0's prefetcher.
    CbwsPrefetcher *cbws0 = cbwsComponent(prefetchers[0].get());
    if (probes.differentials && cbws0)
        cbws0->setDifferentialProbe(probes.differentials);

    // The shared hierarchy resets its statistics when the *last* core
    // crosses its warmup boundary (per-core windows are subtracted
    // individually by each core's finish()).
    unsigned warmups_pending = warmup_insts > 0 ? n : 0;
    std::vector<bool> warmup_crossed(n, false);
    auto cross_warmup = [&](unsigned c, Cycle) {
        if (warmups_pending == 0 || warmup_crossed[c])
            return;
        warmup_crossed[c] = true;
        if (--warmups_pending == 0)
            mem.resetStats();
    };

    std::vector<CoreHooks> hooks(n);
    for (unsigned c = 0; c < n; ++c) {
        Prefetcher *pf = prefetchers[c].get();
        PrefetchSink *sink = sinks[c].get();
        hooks[c].commit = [pf, sink](const TraceRecord &rec,
                                     const AccessOutcome &out, Cycle) {
            // The scope sits inside the dispatch so commits that never
            // reach the prefetcher (plain ALU/branch retires, i.e. most
            // of the stream) pay nothing while profiling.
            switch (rec.cls) {
              case InstClass::Load:
              case InstClass::Store: {
                PROF_SCOPE_SAMPLED(prof::Phase::PfObserve, 15);
                pf->observe(
                    PrefetchEvent{PfStage::Commit, contextOf(rec, out)},
                    *sink);
                break;
              }
              case InstClass::BlockBegin: {
                PROF_SCOPE(prof::Phase::PfObserve);
                pf->blockBegin(rec.blockId, *sink);
                break;
              }
              case InstClass::BlockEnd: {
                PROF_SCOPE(prof::Phase::PfObserve);
                pf->blockEnd(rec.blockId, *sink);
                break;
              }
              default:
                break;
            }
        };
        // Only the stages the scheme declares reach it (the others
        // are no-ops for it): no access hook unless it trains there,
        // and a commit mask of only its commit stages (below).
        if (pf->stages() & TrainsAtAccess) {
            hooks[c].access = [pf, sink](const TraceRecord &rec,
                                         const AccessOutcome &out,
                                         Cycle) {
                PROF_SCOPE_SAMPLED(prof::Phase::PfObserve, 15);
                pf->observe(
                    PrefetchEvent{PfStage::Access, contextOf(rec, out)},
                    *sink);
            };
        }
        hooks[c].warmup = [&cross_warmup, c](Cycle now) {
            cross_warmup(c, now);
        };
    }

    std::vector<std::unique_ptr<OooCore>> cores;
    std::vector<OooCore *> order;
    for (unsigned c = 0; c < n; ++c) {
        cores.push_back(std::make_unique<OooCore>(config.core, mem, c));
        order.push_back(cores[c].get());
        cores[c]->setTraceSink(probes.trace);
        cores[c]->setCommitHookMask(
            trainingCommitMask(prefetchers[c]->stages()));
        cores[c]->begin(*traces[c], max_insts, hooks[c].commit,
                        hooks[c].access, warmup_insts, hooks[c].warmup);
    }
    // A core whose trace ends before its warmup boundary still
    // releases the shared reset. A lone core has nothing to release:
    // its whole run stays in the statistics.
    std::function<void(unsigned, Cycle)> on_done;
    if (n > 1)
        on_done = cross_warmup;
    const std::vector<CoreStats> core_stats =
        runCores(order, mem, on_done);

    mem.finalize();

    SimResult result;
    result.cores = n;
    result.prefetcher = prefetchers[0]->name();
    result.dramBackend = mem.dram().name();
    result.mem = mem.stats();
    result.prefetcherStorageBits = prefetchers[0]->storageBits();
    std::vector<CoreSliceResult> slices(n);
    Cycle slowest = 0;
    for (unsigned c = 0; c < n; ++c) {
        CoreSliceResult &slice = slices[c];
        slice.workload = workload_names[c];
        slice.core = core_stats[c];
        if (c < result.mem.perCore.size())
            slice.mem = result.mem.perCore[c];
        // Aggregate: instructions and event counts sum across cores;
        // the run lasts as long as its slowest core.
        for (auto counter : CoreStats::Counters)
            result.core.*counter += slice.core.*counter;
        slowest = std::max(slowest, slice.core.cycles);
        if (c == 0) {
            result.workload = slice.workload;
        } else {
            result.workload += "+" + slice.workload;
        }
    }
    result.core.cycles = slowest;
    if (n > 1)
        result.perCore = std::move(slices);
    if (probes.schemeMetrics) {
        for (unsigned c = 0; c < n; ++c) {
            prefetchers[c]->exportMetrics(
                *probes.schemeMetrics,
                n == 1 ? "pf.scheme"
                       : "core" + std::to_string(c) + ".pf.scheme");
        }
    }
    return result;
}

SimResult
simulateWorkload(const Workload &workload, const SystemConfig &config,
                 const WorkloadParams &params, const SimProbes &probes,
                 std::uint64_t warmup_insts)
{
    Trace trace;
    trace.reserve(params.maxInstructions + 512);
    {
        PROF_SCOPE(prof::Phase::TraceSynthesis);
        workload.generate(trace, params);
    }
    SimResult result = simulate(trace, config, params.maxInstructions,
                                probes, warmup_insts);
    result.workload = workload.name();
    return result;
}

} // namespace cbws
