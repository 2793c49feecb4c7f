/**
 * @file
 * Multi-core simulation: single-core equivalence with a hand-wired
 * system, lockstep determinism at any matrix job count,
 * per-core/aggregate counter reconciliation, cross-core pollution
 * attribution, profiler attribution, and the v3 report/checkpoint
 * schemas.
 */

#include <gtest/gtest.h>

#include "base/profiler.hh"
#include "prefetch/registry.hh"
#include "sim/checkpoint.hh"
#include "sim/experiment.hh"
#include "sim/report.hh"
#include "workloads/registry.hh"

namespace cbws
{
namespace
{

constexpr std::uint64_t kInsts = 8000;

Trace
makeTrace(const std::string &workload, std::uint64_t insts = kInsts)
{
    auto w = findWorkload(workload);
    EXPECT_NE(w, nullptr) << workload;
    WorkloadParams params;
    params.maxInstructions = insts;
    Trace t;
    w->generate(t, params);
    return t;
}

/** Shared-L2-stressing config: a small L2 and the paper's best
 *  prefetcher, so cross-core interference shows at test budgets. */
SystemConfig
contendedConfig(unsigned cores)
{
    SystemConfig cfg;
    cfg.scheme = "CBWS+SMS";
    cfg.mem.numCores = cores;
    cfg.mem.l2.sizeBytes = 64 * 1024;
    return cfg;
}

SimResult
runMix(unsigned cores, const std::vector<std::string> &mix,
       const std::vector<Trace> &traces,
       std::uint64_t warmup = kInsts / 4)
{
    std::vector<const Trace *> core_traces;
    std::vector<std::string> core_names;
    for (unsigned c = 0; c < cores; ++c) {
        core_traces.push_back(&traces[c % traces.size()]);
        core_names.push_back(mix[c % mix.size()]);
    }
    return simulateMulti(core_traces, core_names,
                         contendedConfig(cores), kInsts, SimProbes(),
                         warmup);
}

/** The hierarchy end of the hand-wired reference below. */
class ReferenceSink : public PrefetchSink
{
  public:
    explicit ReferenceSink(Hierarchy &mem) : mem_(mem) {}

    void
    issuePrefetch(LineAddr line, PfSource src) override
    {
        mem_.enqueuePrefetch(line, src);
    }

    bool
    isCached(LineAddr line) const override
    {
        return mem_.isCachedOrInFlightL2(line);
    }

  private:
    Hierarchy &mem_;
};

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

/**
 * A single-core system wired by hand, independently of the simulator
 * driver: one Hierarchy, makePrefetcher() trained at every stage
 * (commit, block markers and access) whatever stages it declares,
 * OooCore::run(), and a hierarchy-statistics reset at the warm-up
 * boundary.
 */
SimResult
handWired(const Trace &trace, const SystemConfig &cfg,
          std::uint64_t warmup, std::uint64_t insts = kInsts)
{
    Hierarchy mem(cfg.mem);
    const std::unique_ptr<Prefetcher> pf = makePrefetcher(cfg);
    ReferenceSink sink(mem);
    const auto on_commit = [&](const TraceRecord &rec,
                               const AccessOutcome &out, Cycle) {
        switch (rec.cls) {
          case InstClass::Load:
          case InstClass::Store:
            pf->observe(PrefetchEvent{PfStage::Commit, contextOf(rec, out)},
                        sink);
            break;
          case InstClass::BlockBegin:
            pf->blockBegin(rec.blockId, sink);
            break;
          case InstClass::BlockEnd:
            pf->blockEnd(rec.blockId, sink);
            break;
          default:
            break;
        }
    };
    const auto on_access = [&](const TraceRecord &rec,
                               const AccessOutcome &out, Cycle) {
        pf->observe(PrefetchEvent{PfStage::Access, contextOf(rec, out)},
                    sink);
    };
    const auto on_warmup = [&mem](Cycle) { mem.resetStats(); };

    SimResult result;
    result.prefetcher = pf->name();
    result.dramBackend = mem.dram().name();
    OooCore core(cfg.core, mem);
    core.setCommitHookMask(OooCore::classBit(InstClass::Load) |
                           OooCore::classBit(InstClass::Store) |
                           OooCore::classBit(InstClass::BlockBegin) |
                           OooCore::classBit(InstClass::BlockEnd));
    result.core =
        core.run(trace, insts, on_commit, on_access, warmup, on_warmup);
    mem.finalize();
    result.mem = mem.stats();
    result.prefetcherStorageBits = pf->storageBits();
    return result;
}

TEST(Multicore, SingleCoreMatchesSimulate)
{
    // simulate() is the one-core case of the lockstep driver; it must
    // reproduce a system wired without that driver.
    const Trace t = makeTrace("stencil-default");
    for (const char *scheme : {"CBWS+SMS", "Pythia"}) {
        for (const std::uint64_t warmup : {std::uint64_t(0), kInsts / 4}) {
            SystemConfig cfg = contendedConfig(1);
            cfg.scheme = scheme;
            const SimResult single =
                simulate(t, cfg, kInsts, SimProbes(), warmup);
            // Byte-identical reports — the CI golden diff rests on this.
            EXPECT_EQ(toJson(single), toJson(handWired(t, cfg, warmup)))
                << scheme << ", warmup " << warmup;
            EXPECT_EQ(single.cores, 1u);
            EXPECT_TRUE(single.perCore.empty());
            EXPECT_TRUE(single.mem.perCore.empty());
        }
    }
}

TEST(Multicore, DeclaredStagesMatchTrainingAtEveryStage)
{
    // simulate() installs only the hooks of the stages a scheme
    // declares; the hand-wired run delivers every stage to every
    // scheme. Equal results show that each stage a scheme leaves out
    // is a no-op for it: on a block-annotated kernel and a DBMS one,
    // under both DRAM backends.
    constexpr std::uint64_t insts = 20000;
    for (const char *workload : {"stencil-default", "hash-join"}) {
        const Trace t = makeTrace(workload, insts);
        for (const char *dram : {"fixed", "ddr"}) {
            for (const std::string &scheme :
                 prefetcherRegistry().names()) {
                SystemConfig cfg;
                cfg.scheme = scheme;
                cfg.mem.dramBackend = dram;
                EXPECT_TRUE(simulate(t, cfg, insts) ==
                            handWired(t, cfg, 0, insts))
                    << scheme << " on " << workload << ", " << dram;
            }
        }
    }
}

TEST(Multicore, DeterministicAcrossRuns)
{
    const std::vector<std::string> mix = {"stencil-default", "nw"};
    const std::vector<Trace> traces = {makeTrace(mix[0]),
                                       makeTrace(mix[1])};
    const SimResult a = runMix(2, mix, traces);
    const SimResult b = runMix(2, mix, traces);
    EXPECT_EQ(toJson(a), toJson(b));
    EXPECT_EQ(a.mem, b.mem);
}

TEST(Multicore, MatrixDeterministicAcrossJobCounts)
{
    // Same seed and --cores=2 must give byte-identical reports at
    // any worker count: multi-core cells still write preassigned
    // slots and share only read-only traces.
    std::vector<WorkloadPtr> ws;
    for (const char *name : {"stencil-default", "nw"})
        ws.push_back(findWorkload(name));
    const std::vector<std::string> kinds = {"No-Prefetch", "CBWS+SMS"};
    SystemConfig cfg = contendedConfig(2);

    MatrixOptions serial;
    serial.jobs = 1;
    MatrixOptions wide;
    wide.jobs = 4;
    const auto m1 = runMatrix(ws, kinds, cfg, kInsts, 42, serial);
    const auto m4 = runMatrix(ws, kinds, cfg, kInsts, 42, wide);

    ASSERT_EQ(m1.rows.size(), m4.rows.size());
    for (std::size_t r = 0; r < m1.rows.size(); ++r) {
        ASSERT_EQ(m1.rows[r].byPrefetcher.size(),
                  m4.rows[r].byPrefetcher.size());
        for (std::size_t k = 0; k < kinds.size(); ++k) {
            const SimResult &a = m1.rows[r].byPrefetcher[k];
            const SimResult &b = m4.rows[r].byPrefetcher[k];
            EXPECT_EQ(toJson(a), toJson(b))
                << m1.rows[r].workload << " / " << kinds[k];
            EXPECT_EQ(a.cores, 2u);
        }
    }
}

TEST(Multicore, PerCoreCountersReconcileWithAggregate)
{
    // Property: every shared-L2 aggregate counter is exactly the sum
    // of its per-core attributions (no access is lost or
    // double-counted by the ownership tracking).
    const std::vector<std::string> mix = {"radix-simlarge",
                                          "lbm-long"};
    const std::vector<Trace> traces = {makeTrace(mix[0]),
                                       makeTrace(mix[1])};
    for (unsigned cores : {2u, 3u, 4u}) {
        const SimResult r = runMix(cores, mix, traces);
        ASSERT_EQ(r.mem.perCore.size(), cores);
        ASSERT_EQ(r.perCore.size(), cores);

        std::uint64_t insts = 0, l1d_acc = 0, l1d_miss = 0;
        std::uint64_t l2_acc = 0, l2_miss = 0, pf_req = 0;
        std::uint64_t pf_issued = 0, victims = 0, caused = 0;
        std::uint64_t resident = 0;
        for (const auto &pc : r.mem.perCore) {
            l1d_acc += pc.l1dAccesses;
            l1d_miss += pc.l1dMisses;
            l2_acc += pc.demandL2Accesses;
            l2_miss += pc.llcDemandMisses;
            pf_req += pc.prefetchesRequested;
            pf_issued += pc.prefetchesIssued;
            victims += pc.pollutionVictimMisses;
            caused += pc.pollutionCausedMisses;
            resident += pc.l2ResidentLines;
        }
        for (const auto &slice : r.perCore)
            insts += slice.core.instructions;

        EXPECT_EQ(insts, r.core.instructions) << cores;
        EXPECT_EQ(l1d_acc, r.mem.l1dAccesses) << cores;
        EXPECT_EQ(l1d_miss, r.mem.l1dMisses) << cores;
        EXPECT_EQ(l2_acc, r.mem.demandL2Accesses) << cores;
        EXPECT_EQ(l2_miss, r.mem.llcDemandMisses) << cores;
        EXPECT_EQ(pf_req, r.mem.prefetchesRequested) << cores;
        EXPECT_EQ(pf_issued, r.mem.prefetchesIssued) << cores;
        // Every attributed pollution miss has exactly one victim and
        // one (distinct) aggressor core.
        EXPECT_EQ(victims, r.mem.crossCorePollutionMisses) << cores;
        EXPECT_EQ(caused, r.mem.crossCorePollutionMisses) << cores;
        // Owned resident lines can never exceed the L2's capacity.
        const SystemConfig cfg = contendedConfig(cores);
        EXPECT_LE(resident, cfg.mem.l2.sizeBytes / LineBytes)
            << cores;
        // Per-core MPKI recomposes the aggregate MPKI.
        double weighted = 0.0;
        for (const auto &slice : r.perCore)
            weighted += slice.mpki() *
                        static_cast<double>(slice.core.instructions);
        EXPECT_NEAR(weighted / static_cast<double>(insts), r.mpki(),
                    1e-9)
            << cores;
    }
}

TEST(Multicore, FourCoreContentionAttributesPollution)
{
    const std::vector<std::string> mix = {"radix-simlarge",
                                          "lbm-long"};
    const std::vector<Trace> traces = {makeTrace(mix[0]),
                                       makeTrace(mix[1])};
    const SimResult r = runMix(4, mix, traces);

    EXPECT_GT(r.mem.crossCorePollutionMisses, 0u);
    EXPECT_GT(r.mem.l2BankConflicts, 0u);

    // The v3 report carries the interference section.
    const std::string json = toJson(r);
    EXPECT_NE(json.find("\"schema_version\":3"), std::string::npos);
    EXPECT_NE(json.find("\"cores\":4"), std::string::npos);
    EXPECT_NE(json.find("\"per_core\":["), std::string::npos);
    EXPECT_NE(json.find("\"interference\":{"), std::string::npos);
    EXPECT_NE(json.find("\"cross_core_pollution_misses\":"),
              std::string::npos);
}

TEST(Multicore, SingleCoreReportStaysV2)
{
    const Trace t = makeTrace("stencil-default");
    const SimResult r = simulate(t, contendedConfig(1), kInsts,
                                 SimProbes(), kInsts / 4);
    const std::string json = toJson(r);
    EXPECT_NE(json.find("\"schema_version\":2"), std::string::npos);
    EXPECT_EQ(json.find("\"cores\""), std::string::npos);
    EXPECT_EQ(json.find("\"per_core\""), std::string::npos);
    EXPECT_EQ(json.find("\"interference\""), std::string::npos);
}

TEST(Multicore, ProfileChargesTheCoreLoopToDecode)
{
    // The lockstep loop is the core's time: a profiled multi-core run
    // must attribute it to decode, not leave it unattributed.
    const std::vector<std::string> mix = {"radix-simlarge",
                                          "lbm-long"};
    const std::vector<Trace> traces = {makeTrace(mix[0], 20000),
                                       makeTrace(mix[1], 20000)};
    const std::vector<const Trace *> core_traces = {&traces[0],
                                                    &traces[1]};
    const unsigned decode_phase =
        static_cast<unsigned>(prof::Phase::Decode);
    const unsigned other_phase = static_cast<unsigned>(prof::Phase::Other);
    // Host-time shares: best of three, so one descheduling of this
    // process outside the loop cannot fail the test on a loaded host.
    double decode = 0.0, other = 0.0;
    for (int attempt = 0; attempt < 3 && decode <= other; ++attempt) {
        prof::resetForTest();
        prof::enable();
        simulateMulti(core_traces, mix, contendedConfig(2), 20000);
        const prof::Report rep = prof::report();
        EXPECT_EQ(rep.phaseEntries[decode_phase], 1u);
        decode = rep.phaseSeconds[decode_phase];
        other = rep.phaseSeconds[other_phase];
    }
    prof::resetForTest();
    EXPECT_GT(decode, other) << "decode " << decode << " s, other "
                             << other << " s";
}

TEST(Multicore, ProfileSplitsTheCoreLoopIntoStages)
{
    // Every pipeline stage of every core gets its own phase, and the
    // sampled split never charges the stages more than the loop spent
    // (the phases still partition the thread's wall time).
    const std::vector<std::string> mix = {"radix-simlarge",
                                          "lbm-long"};
    const std::vector<Trace> traces = {makeTrace(mix[0], 20000),
                                       makeTrace(mix[1], 20000)};
    const std::vector<const Trace *> core_traces = {&traces[0],
                                                    &traces[1]};
    prof::resetForTest();
    prof::enable();
    simulateMulti(core_traces, mix, contendedConfig(2), 20000);
    const prof::Report rep = prof::report();
    prof::resetForTest();
    for (const prof::Phase stage :
         {prof::Phase::Fetch, prof::Phase::Dispatch, prof::Phase::Issue,
          prof::Phase::Commit}) {
        const unsigned p = static_cast<unsigned>(stage);
        EXPECT_GT(rep.phaseEntries[p], 0u) << prof::toString(stage);
        EXPECT_GT(rep.phaseSeconds[p], 0.0) << prof::toString(stage);
    }
    EXPECT_NEAR(rep.mainThreadSeconds, rep.wallSeconds,
                0.10 * rep.wallSeconds);
}

TEST(Multicore, CheckpointRoundTripsMulticoreCells)
{
    const std::vector<std::string> mix = {"stencil-default", "nw"};
    const std::vector<Trace> traces = {makeTrace(mix[0]),
                                       makeTrace(mix[1])};
    const SimResult r = runMix(2, mix, traces);

    Result<SimResult> back =
        parseCheckpointCell(checkpointCellLine(r));
    ASSERT_TRUE(back.ok()) << back.error().str();
    EXPECT_TRUE(back.value() == r);
    // The resumed cell re-serialises byte-identically — resumed
    // matrix reports cannot drift.
    EXPECT_EQ(checkpointCellLine(back.value()), checkpointCellLine(r));
    EXPECT_EQ(toJson(back.value()), toJson(r));
}

} // anonymous namespace
} // namespace cbws
