/**
 * @file
 * google-benchmark micro-benchmarks of the prefetcher hardware
 * structures: per-access cost of each scheme's training/prediction
 * logic, CBWS table operations and the branch predictor.
 *
 * These measure the simulator's software cost (useful when sizing
 * experiment budgets), not the modelled hardware latency.
 */

#include <benchmark/benchmark.h>

#include "core/cbws_prefetcher.hh"
#include "cpu/branch_pred.hh"
#include "prefetch/ampm.hh"
#include "prefetch/ghb.hh"
#include "prefetch/sms.hh"
#include "prefetch/stride.hh"
#include "sim/simulator.hh"
#include "workloads/registry.hh"

namespace
{

using namespace cbws;

class NullSink : public PrefetchSink
{
  public:
    void issuePrefetch(LineAddr line, PfSource) override
    {
        benchmark::DoNotOptimize(line);
    }
    bool isCached(LineAddr) const override { return false; }
};

PrefetchContext
ctxFor(std::uint64_t i)
{
    PrefetchContext ctx;
    ctx.pc = 0x400 + (i % 16) * 4;
    ctx.addr = 0x1000000 + i * 72;
    ctx.line = lineOf(ctx.addr);
    ctx.l2Miss = true;
    return ctx;
}

void
BM_StrideObserve(benchmark::State &state)
{
    StridePrefetcher pf;
    NullSink sink;
    std::uint64_t i = 0;
    for (auto _ : state)
        pf.observeAccess(ctxFor(i++), sink);
}
BENCHMARK(BM_StrideObserve);

void
BM_GhbPcDcObserve(benchmark::State &state)
{
    GhbPrefetcher pf(GhbPrefetcher::Mode::PcDC);
    NullSink sink;
    std::uint64_t i = 0;
    for (auto _ : state)
        pf.observeAccess(ctxFor(i++), sink);
}
BENCHMARK(BM_GhbPcDcObserve);

void
BM_SmsObserve(benchmark::State &state)
{
    SmsPrefetcher pf;
    NullSink sink;
    std::uint64_t i = 0;
    for (auto _ : state)
        pf.observeAccess(ctxFor(i++), sink);
}
BENCHMARK(BM_SmsObserve);

void
BM_CbwsBlock(benchmark::State &state)
{
    // Cost of a whole annotated block: begin + N accesses + end
    // (training, differential update and prediction).
    const unsigned lines = static_cast<unsigned>(state.range(0));
    CbwsPrefetcher pf;
    NullSink sink;
    std::uint64_t b = 0;
    for (auto _ : state) {
        pf.blockBegin(1, sink);
        for (unsigned j = 0; j < lines; ++j) {
            PrefetchContext ctx;
            ctx.pc = 0x400 + j * 4;
            ctx.addr = (100000ull * (j + 1) + b * 64) * 64;
            ctx.line = lineOf(ctx.addr);
            pf.observeCommit(ctx, sink);
        }
        pf.blockEnd(1, sink);
        ++b;
    }
    state.SetItemsProcessed(state.iterations() * lines);
}
BENCHMARK(BM_CbwsBlock)->Arg(2)->Arg(7)->Arg(16);

void
BM_DifferentialTableLookup(benchmark::State &state)
{
    DifferentialTable table(16);
    CbwsDifferential d;
    for (int i = 0; i < 16; ++i)
        d.append(static_cast<std::int16_t>(i));
    for (std::uint16_t tag = 0; tag < 16; ++tag)
        table.insert(tag, d);
    std::uint16_t tag = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(table.lookup(tag));
        tag = (tag + 1) & 31;
    }
}
BENCHMARK(BM_DifferentialTableLookup);

void
BM_AmpmObserve(benchmark::State &state)
{
    AmpmPrefetcher pf;
    NullSink sink;
    std::uint64_t i = 0;
    for (auto _ : state)
        pf.observeAccess(ctxFor(i++), sink);
}
BENCHMARK(BM_AmpmObserve);

void
BM_BranchPredictor(benchmark::State &state)
{
    TournamentBP bp;
    std::uint64_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(bp.predictAndTrain(
            0x400 + (i % 64) * 4, (i & 3) != 0, 0x400));
        ++i;
    }
}
BENCHMARK(BM_BranchPredictor);

void
BM_SimulatorThroughput(benchmark::State &state)
{
    // Whole-system simulation rate (instructions per second) on the
    // stencil workload with the CBWS+SMS configuration.
    auto w = findWorkload("stencil-default");
    WorkloadParams params;
    params.maxInstructions = 20000;
    Trace trace;
    w->generate(trace, params);
    SystemConfig config;
    config.scheme = "CBWS+SMS";
    for (auto _ : state) {
        SimResult r = simulate(trace, config,
                               params.maxInstructions);
        benchmark::DoNotOptimize(r.core.cycles);
    }
    state.SetItemsProcessed(state.iterations() *
                            params.maxInstructions);
}
BENCHMARK(BM_SimulatorThroughput)->Unit(benchmark::kMillisecond);

} // anonymous namespace

BENCHMARK_MAIN();
