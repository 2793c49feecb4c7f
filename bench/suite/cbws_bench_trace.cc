/**
 * @file
 * Traced run of one benchmark workload: the per-layer metrics and the
 * span file (see README.md, "Reading the spans").
 *
 *   cbws_bench_trace --workload dbms-ddr --seed 42
 *
 * Every layer is timed from outside, around calls into its public
 * functions, in five steps:
 *  1. set-up: Workload::generate and Trace::ensureDecoded per kernel;
 *  2. an untraced pass (simulate()/simulateMulti() per cell): the
 *     reference results and modelled counters, the scheme gauges
 *     (SimProbes::schemeMetrics), per-cell latency and untraced speed;
 *  3. on one core, a traced pass: this file wires Hierarchy,
 *     makePrefetcher() and OooCore exactly as simulate() does, timing
 *     each Prefetcher and PrefetchSink call; every cell must reproduce
 *     the untraced result bit for bit. After each cell its recorded
 *     demand stream is replayed into a fresh Hierarchy (load/store)
 *     and its demand-miss stream into a fresh DramBackend (read).
 *     Multi-core cells are timed only as whole simulateMulti() calls,
 *     in step 2; splitting them needs tracing inside the simulator;
 *  4. a TraceCache store/load round trip of every trace;
 *  5. a profiled pass (prof::enable) through the workload's own
 *     runner with a checkpoint: pool busy/queue-wait time and
 *     checkpoint I/O from prof::report().
 */

#include <algorithm>
#include <cstdio>
#include <memory>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "base/logging.hh"
#include "base/metrics.hh"
#include "base/profiler.hh"
#include "base/threadpool.hh"
#include "mem/dram/backend.hh"
#include "sim/checkpoint.hh"
#include "sim/config.hh"
#include "suite.hh"
#include "trace/tracecache.hh"

using namespace cbws;
using namespace cbws::suite;

namespace
{

/** Per-call timer: TSC ticks where available (a few ns to read),
 *  converted with a ratio calibrated over the traced pass. */
inline std::uint64_t
tick()
{
#if defined(__x86_64__) || defined(__i386__)
    return __rdtsc();
#else
    return nowNs();
#endif
}

/** Time in one kind of prefetch hook, with the sink calls made from
 *  inside it (those are included in `ticks`). */
struct HookTimes
{
    std::uint64_t ticks = 0;
    std::uint64_t calls = 0;
    std::uint64_t enqueueTicks = 0;
    std::uint64_t enqueueCalls = 0;
    std::uint64_t cachedTicks = 0;
    std::uint64_t cachedCalls = 0;
};

/** What the traced pass measured for one cell. */
struct CellTimes
{
    std::uint64_t beginNs = 0; ///< cell: simulation + replays
    std::uint64_t simulatedNs = 0; ///< end of the simulation
    std::uint64_t endNs = 0;
    std::uint64_t runBeginNs = 0; ///< OooCore::run
    std::uint64_t runEndNs = 0;
    std::uint64_t runTicks = 0;
    HookTimes observe; ///< Prefetcher::observe
    HookTimes block;   ///< Prefetcher::blockBegin/blockEnd
    /** Recording the replay streams inside the access hook. */
    std::uint64_t recordTicks = 0;
    std::uint64_t memReplayBeginNs = 0;
    std::uint64_t memReplayTicks = 0;
    std::uint64_t accesses = 0;
    std::uint64_t dramReplayBeginNs = 0;
    std::uint64_t dramReplayTicks = 0;
    std::uint64_t dramReads = 0;

    std::uint64_t
    hookTicks() const
    {
        return observe.ticks + block.ticks + recordTicks;
    }
};

/** One demand access as the core issued it, for the memory replay. */
struct Access
{
    Addr addr = 0;
    Cycle cycle = 0;
    bool store = false;
};

/** A worker's recorded demand streams (reused across cells). */
struct Streams
{
    std::vector<Access> accesses;
    std::vector<DramRequest> dramReads;
};

/** simulate()'s hierarchy sink, timing each call into the hook that
 *  is currently running. */
class TimedSink : public PrefetchSink
{
  public:
    explicit TimedSink(Hierarchy &mem) : mem_(mem) {}

    /** The hook whose time the next calls count toward. */
    void enter(HookTimes &hook) { hook_ = &hook; }

    void
    issuePrefetch(LineAddr line, PfSource src) override
    {
        const std::uint64_t t0 = tick();
        mem_.enqueuePrefetch(line, src);
        hook_->enqueueTicks += tick() - t0;
        ++hook_->enqueueCalls;
    }

    bool
    isCached(LineAddr line) const override
    {
        const std::uint64_t t0 = tick();
        const bool cached = mem_.isCachedOrInFlightL2(line);
        hook_->cachedTicks += tick() - t0;
        ++hook_->cachedCalls;
        return cached;
    }

  private:
    Hierarchy &mem_;
    HookTimes *hook_ = nullptr;
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

/** The classes simulate()'s training hook acts on. */
constexpr std::uint32_t TrainingMask =
    OooCore::classBit(InstClass::Load) |
    OooCore::classBit(InstClass::Store) |
    OooCore::classBit(InstClass::BlockBegin) |
    OooCore::classBit(InstClass::BlockEnd);

/** simulate() on the out-of-order core, wired by hand with timed
 *  prefetch hooks that also record the replay streams. */
SimResult
tracedSimulate(const Trace &trace, const SystemConfig &config,
               std::uint64_t insts, std::uint64_t warmup, CellTimes &t,
               Streams &streams)
{
    Hierarchy mem(config.mem);
    const std::unique_ptr<Prefetcher> pf = makePrefetcher(config);
    TimedSink sink(mem);
    const auto on_commit = [&](const TraceRecord &rec,
                               const AccessOutcome &out, Cycle) {
        HookTimes *hook = &t.observe;
        const std::uint64_t t0 = tick();
        switch (rec.cls) {
          case InstClass::Load:
          case InstClass::Store:
            sink.enter(t.observe);
            pf->observe(PrefetchEvent{PfStage::Commit, contextOf(rec, out)},
                        sink);
            break;
          case InstClass::BlockBegin:
            hook = &t.block;
            sink.enter(t.block);
            pf->blockBegin(rec.blockId, sink);
            break;
          case InstClass::BlockEnd:
            hook = &t.block;
            sink.enter(t.block);
            pf->blockEnd(rec.blockId, sink);
            break;
          default:
            return;
        }
        hook->ticks += tick() - t0;
        ++hook->calls;
    };
    const auto on_access = [&](const TraceRecord &rec,
                               const AccessOutcome &out, Cycle now) {
        const std::uint64_t t0 = tick();
        streams.accesses.push_back(
            {rec.effAddr, now, rec.cls == InstClass::Store});
        if (out.cls == DemandClass::Missing ||
            out.cls == DemandClass::NonTimely)
            streams.dramReads.push_back(
                {rec.line(), now, false, PfSource::Unknown});
        const std::uint64_t t1 = tick();
        t.recordTicks += t1 - t0;
        sink.enter(t.observe);
        pf->observe(PrefetchEvent{PfStage::Access, contextOf(rec, out)},
                    sink);
        t.observe.ticks += tick() - t1;
        ++t.observe.calls;
    };
    const auto on_warmup = [&mem](Cycle) { mem.resetStats(); };

    SimResult result;
    result.prefetcher = pf->name();
    result.dramBackend = mem.dram().name();
    OooCore core(config.core, mem);
    core.setCommitHookMask(TrainingMask);
    t.runBeginNs = nowNs();
    const std::uint64_t t0 = tick();
    result.core =
        core.run(trace, insts, on_commit, on_access, warmup, on_warmup);
    t.runTicks = tick() - t0;
    t.runEndNs = nowNs();
    mem.finalize();
    result.mem = mem.stats();
    result.prefetcherStorageBits = pf->storageBits();
    return result;
}

/** Replay a cell's recorded streams into a fresh Hierarchy and a
 *  fresh DRAM backend of the same configuration. */
void
replay(const SystemConfig &config, Streams &streams, CellTimes &t)
{
    {
        Hierarchy mem(config.mem);
        t.memReplayBeginNs = nowNs();
        const std::uint64_t t0 = tick();
        for (const Access &a : streams.accesses) {
            if (a.store)
                mem.store(a.addr, a.cycle);
            else
                mem.load(a.addr, a.cycle);
        }
        t.memReplayTicks = tick() - t0;
        t.accesses = streams.accesses.size();
    }
    Result<std::unique_ptr<DramBackend>> made =
        dramBackendRegistry().create(config.mem.dramBackend, config.mem);
    fatal_if(!made.ok(), "%s", made.error().str().c_str());
    std::unique_ptr<DramBackend> dram = std::move(made).value();
    t.dramReplayBeginNs = nowNs();
    const std::uint64_t t0 = tick();
    for (const DramRequest &req : streams.dramReads)
        dram->read(req);
    t.dramReplayTicks = tick() - t0;
    t.dramReads = streams.dramReads.size();
    streams.accesses.clear();
    streams.dramReads.clear();
}

/** The traced pass over every cell of a single-core workload. */
struct TracedPass
{
    std::vector<SimResult> cells;
    std::vector<CellTimes> times;
    std::uint64_t beginNs = 0;
    std::uint64_t endNs = 0;
    double nsPerTick = 1.0;
};

TracedPass
runTraced(const WorkloadSpec &spec, const Options &opts,
          const Inputs &inputs)
{
    TracedPass pass;
    const std::size_t num_schemes = spec.schemes.size();
    pass.cells.resize(spec.cells());
    pass.times.resize(spec.cells());
    pass.beginNs = nowNs();
    const std::uint64_t tick0 = tick();
    parallelFor(Jobs, spec.cells(), [&](std::size_t i) {
        thread_local Streams streams;
        const std::size_t k = i / num_schemes;
        const SystemConfig config = cellConfig(spec, i % num_schemes);
        CellTimes &t = pass.times[i];
        t.beginNs = nowNs();
        SimResult result =
            tracedSimulate(inputs.traces[k], config, opts.insts,
                           spec.warmup(opts.insts), t, streams);
        t.simulatedNs = nowNs();
        result.workload = spec.kernels[k];
        replay(config, streams, t);
        t.endNs = nowNs();
        pass.cells[i] = std::move(result);
    });
    const std::uint64_t ticks = tick() - tick0;
    pass.endNs = nowNs();
    pass.nsPerTick = ratio(static_cast<double>(pass.endNs - pass.beginNs),
                           static_cast<double>(ticks));
    return pass;
}

/**
 * Spans kept in memory and written at exit. An interval span has a
 * start and an end (nowNs()); per-call timers are summed into one
 * total span per layer per cell, with a call count and a duration but
 * no start or end.
 */
class Spans
{
  public:
    int
    interval(const std::string &name, int parent, long cell,
             const std::string &what, std::uint64_t start,
             std::uint64_t end, std::uint64_t calls = 1)
    {
        spans_.push_back({name, what, parent, cell, start, end, calls,
                          true});
        return static_cast<int>(spans_.size()) - 1;
    }

    int
    total(const std::string &name, int parent, long cell,
          const std::string &what, double dur_ns, std::uint64_t calls)
    {
        spans_.push_back({name, what, parent, cell, 0,
                          static_cast<std::uint64_t>(dur_ns), calls,
                          false});
        return static_cast<int>(spans_.size()) - 1;
    }

    /** Close interval span @p id, opened with an unknown end. */
    void end(int id, std::uint64_t end_ns) { spans_[id].end = end_ns; }

    std::string
    json() const
    {
        std::string out = "[";
        for (std::size_t id = 0; id < spans_.size(); ++id) {
            const Span &s = spans_[id];
            out += (id ? ",\n" : "") + std::string("{\"id\": ") +
                   std::to_string(id) +
                   ", \"parent\": " + std::to_string(s.parent) +
                   ", \"name\": " + jsonString(s.name) +
                   ", \"cell\": " + std::to_string(s.cell) +
                   ", \"what\": " + jsonString(s.what);
            if (s.interval)
                out += ", \"start_ns\": " + std::to_string(s.start) +
                       ", \"end_ns\": " + std::to_string(s.end);
            out += ", \"dur_ns\": " +
                   std::to_string(s.interval ? s.end - s.start : s.end) +
                   ", \"calls\": " + std::to_string(s.calls) + "}";
        }
        return out + "]";
    }

  private:
    struct Span
    {
        std::string name;
        std::string what; ///< kernel or "kernel scheme"
        int parent;       ///< -1 for a root
        long cell;        ///< cell index in a pass, -1 for none
        std::uint64_t start;
        std::uint64_t end; ///< total spans: the summed duration
        std::uint64_t calls;
        bool interval;
    };

    std::vector<Span> spans_;
};

/** Metric-name form of a scheme: "GHB-PC/DC" -> "ghb-pc_dc". */
std::string
slug(const std::string &scheme)
{
    std::string out;
    for (char c : scheme)
        out.push_back(c == '+' || c == '/' ? '_'
                      : c >= 'A' && c <= 'Z'
                          ? static_cast<char>(c - 'A' + 'a')
                          : c);
    return out;
}

bool
sameRecords(const Trace &a, const Trace &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const TraceRecord &x = a[i];
        const TraceRecord &y = b[i];
        if (x.pc != y.pc || x.effAddr != y.effAddr || x.cls != y.cls ||
            x.size != y.size || x.src1 != y.src1 || x.src2 != y.src2 ||
            x.dest != y.dest || x.taken != y.taken ||
            x.blockId != y.blockId)
            return false;
    }
    return true;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const Options opts = parseOptions(
        argc, argv, "cbws_bench_trace",
        "Per-layer metrics and spans of one benchmark workload.",
        "BENCH_suite_trace.json");
    const WorkloadSpec &spec = *opts.spec;
    const std::size_t num_cells = spec.cells();
    const std::size_t num_schemes = spec.schemes.size();
    keepFreedMemoryResident();
    makeDirs(opts.scratchDir);
    Gate gate(spec, opts);
    Spans spans;

    // 1. Set-up.
    const Inputs inputs =
        setUp(spec, opts, opts.scratchDir + "/traces", true);
    std::uint64_t records = 0, generate_ns = 0, decode_ns = 0;
    {
        const int root = spans.interval("setup", -1, -1, "", inputs.beginNs,
                                        inputs.endNs);
        for (std::size_t k = 0; k < spec.kernels.size(); ++k) {
            const SetupStamps &s = inputs.stamps[k];
            records += inputs.traces[k].size();
            generate_ns += s.generated - s.begin;
            decode_ns += s.decoded - s.stored;
            spans.interval("workloads.generate", root, -1, spec.kernels[k],
                           s.begin, s.generated);
            if (s.stored != s.generated)
                spans.interval("trace.cache_store", root, -1,
                               spec.kernels[k], s.generated, s.stored);
            spans.interval("trace.decode", root, -1, spec.kernels[k],
                           s.stored, s.decoded);
        }
    }

    const auto cell_name = [&](std::size_t i) {
        return spec.kernels[i / num_schemes] + " " +
               spec.schemes[i % num_schemes];
    };

    // 2. Untraced pass: reference results, scheme gauges and per-cell
    //    latency; on several cores, the only timing of the cells.
    std::vector<MetricsRegistry> scheme_metrics(num_cells);
    const std::uint64_t untraced_begin = nowNs();
    const Pass untraced =
        runCells(spec, opts, inputs, nullptr, &scheme_metrics);
    gate.check(untraced.cells, "untraced pass");
    const int untraced_root = spans.interval(
        "untraced_pass", -1, -1, "", untraced_begin, nowNs(), num_cells);
    for (std::size_t i = 0; i < num_cells; ++i)
        spans.total(spec.cores > 1 ? "sim.simulate_multi" : "sim.simulate",
                    untraced_root, static_cast<long>(i), cell_name(i),
                    untraced.cellSeconds[i] * 1e9, 1);

    // 3. Traced pass + replays, on one core only.
    TracedPass traced;
    if (spec.cores == 1) {
        traced = runTraced(spec, opts, inputs);
        gate.attempt(num_cells);
    }
    const double nspt = traced.nsPerTick;
    const int traced_root =
        traced.times.empty()
            ? -1
            : spans.interval("traced_pass", -1, -1, "", traced.beginNs,
                             traced.endNs, num_cells);
    for (std::size_t i = 0; i < traced.times.size(); ++i) {
        const std::string what = cell_name(i);
        if (!sameResult(traced.cells[i], untraced.cells[i]))
            gate.fail("traced pass: " + what +
                      ": differs from the untraced result");
        const CellTimes &t = traced.times[i];
        const long cell = static_cast<long>(i);
        const int c = spans.interval("cell", traced_root, cell, what,
                                     t.beginNs, t.endNs);
        const int run = spans.interval("cpu.run", c, cell, what,
                                       t.runBeginNs, t.runEndNs);
        const auto hook_spans = [&](const char *name,
                                    const HookTimes &hook) {
            const int h = spans.total(name, run, cell, what,
                                      hook.ticks * nspt, hook.calls);
            spans.total("mem.enqueue_prefetch", h, cell, what,
                        hook.enqueueTicks * nspt, hook.enqueueCalls);
            spans.total("mem.is_cached", h, cell, what,
                        hook.cachedTicks * nspt, hook.cachedCalls);
        };
        hook_spans("prefetch.observe", t.observe);
        hook_spans("prefetch.block", t.block);
        spans.total("bench.record", run, cell, what, t.recordTicks * nspt,
                    t.accesses);
        spans.interval("replay.mem", c, cell, what, t.memReplayBeginNs,
                       t.memReplayBeginNs +
                           static_cast<std::uint64_t>(t.memReplayTicks *
                                                      nspt),
                       t.accesses);
        spans.interval("replay.dram", c, cell, what, t.dramReplayBeginNs,
                       t.dramReplayBeginNs +
                           static_cast<std::uint64_t>(t.dramReplayTicks *
                                                      nspt),
                       t.dramReads);
    }

    // 4. Trace-cache round trip.
    double store_ns = 0.0, load_ns = 0.0;
    std::uint64_t cache_bytes = 0;
    {
        const std::string dir = opts.scratchDir + "/cache-roundtrip";
        removeAll(dir);
        TraceCache cache(dir);
        const int root = spans.interval("cache_roundtrip", -1, -1, "",
                                        nowNs(), 0);
        for (std::size_t k = 0; k < spec.kernels.size(); ++k) {
            const TraceCache::Key key{spec.kernels[k], opts.insts,
                                      opts.seed};
            const std::uint64_t b = nowNs();
            const Result<void> stored = cache.store(key, inputs.traces[k]);
            const std::uint64_t e = nowNs();
            store_ns += static_cast<double>(e - b);
            spans.interval("trace.cache_store", root, -1, spec.kernels[k],
                           b, e);
            if (!stored.ok())
                warn("trace cache store: %s", stored.error().str().c_str());
        }
        cache_bytes = bytesOnDisk(dir);
        for (std::size_t k = 0; k < spec.kernels.size(); ++k) {
            const TraceCache::Key key{spec.kernels[k], opts.insts,
                                      opts.seed};
            Trace loaded;
            const std::uint64_t b = nowNs();
            const Result<void> got = cache.load(key, loaded);
            const std::uint64_t e = nowNs();
            load_ns += static_cast<double>(e - b);
            spans.interval("trace.cache_load", root, -1, spec.kernels[k],
                           b, e);
            gate.attempt(1);
            if (!got.ok() || !sameRecords(loaded, inputs.traces[k]))
                gate.fail("trace cache round trip: " + spec.kernels[k]);
        }
        spans.end(root, nowNs());
        removeAll(dir);
    }

    // 5. Profiled pass through the workload's own runner.
    const std::string ckpt_path = opts.scratchDir + "/profiled.ckpt";
    prof::enable();
    const std::uint64_t profiled_begin = nowNs();
    Pass profiled;
    if (spec.viaRunMatrix) {
        profiled = runMatrixPass(spec, opts, inputs, ckpt_path);
    } else {
        removeAll(ckpt_path);
        Checkpoint checkpoint;
        Checkpoint::Header header;
        header.insts = opts.insts;
        header.seed = opts.seed;
        header.fingerprint =
            checkpointFingerprint(spec.kernels, spec.schemes, spec.dram);
        const Result<void> opened = checkpoint.open(ckpt_path, header);
        fatal_if(!opened.ok(), "%s", opened.error().str().c_str());
        profiled = runCells(spec, opts, inputs, &checkpoint);
        const Result<void> synced = checkpoint.sync();
        if (!synced.ok())
            gate.fail("checkpoint sync: " + synced.error().str());
    }
    const std::uint64_t profiled_end = nowNs();
    const prof::Report rep = prof::report();
    gate.check(profiled.cells, "profiled pass");
    if (profiled.traceCacheMisses)
        gate.fail("runMatrix missed the primed trace cache");
    spans.interval("profiled_pass", -1, -1, "", profiled_begin,
                   profiled_end, num_cells);
    double pool_busy_s = 0.0, pool_queue_s = 0.0;
    for (const auto &worker : rep.workers) {
        pool_busy_s += worker.busySeconds;
        pool_queue_s += worker.queueWaitSeconds;
    }
    const std::uint64_t ckpt_bytes = bytesOnDisk(ckpt_path);
    removeAll(opts.scratchDir);

    // Modelled counters come from the untraced cells (on one core the
    // traced cells equal them), host times from the traced pass; on
    // several cores there is none, and those times stay 0.
    const double cell_budget = static_cast<double>(opts.insts) * spec.cores;
    const double budget = cell_budget * static_cast<double>(num_cells);
    double committed = 0, cycles = 0, table_hits = 0, table_lookups = 0;
    double rob_full = 0, lsq_full = 0, mispredicts = 0;
    double issued = 0, dropped = 0, demand_hits = 0, filled = 0;
    double timely = 0, covered_misses = 0;
    double l1d_accesses = 0, l1d_misses = 0, llc_misses = 0;
    double mshr_stalls = 0, bank_conflicts = 0, pollution = 0;
    double row_hits = 0, row_accesses = 0, queue_depth = 0;
    double dram_read_count = 0, deferred = 0, bus_busy = 0;
    double untraced_s = 0.0;
    std::vector<double> cell_ms;
    for (std::size_t i = 0; i < num_cells; ++i) {
        const SimResult &r = untraced.cells[i];
        committed += r.core.instructions;
        cycles += r.core.cycles;
        for (const auto &m : scheme_metrics[i].metrics()) {
            if (m.path.ends_with(".cbws.tableHits")) {
                table_hits += m.uintValue;
                table_lookups += m.uintValue;
            } else if (m.path.ends_with(".cbws.tableMisses")) {
                table_lookups += m.uintValue;
            }
        }
        rob_full += r.core.robFullStalls;
        lsq_full += r.core.lsqFullStalls;
        mispredicts += r.core.branchMispredicts;
        const PrefetchLifecycle life = r.mem.pfLifeTotal();
        issued += life.issued;
        dropped += life.dropped;
        demand_hits += life.demandHits();
        filled += life.filled;
        if (spec.schemes[i % num_schemes] != "No-Prefetch") {
            timely += life.demandHitTimely;
            covered_misses += life.demandHitTimely + r.mem.llcDemandMisses;
        }
        l1d_accesses += r.mem.l1dAccesses;
        l1d_misses += r.mem.l1dMisses;
        llc_misses += r.mem.llcDemandMisses;
        mshr_stalls += r.mem.mshrStalls;
        bank_conflicts += r.mem.l2BankConflicts;
        pollution += r.mem.crossCorePollutionMisses;
        const DramStats &d = r.mem.dram;
        row_hits += d.rowHits;
        row_accesses += d.rowHits + d.rowMisses + d.rowClosed;
        queue_depth += d.readQueueDepthSum;
        dram_read_count += d.reads;
        deferred += d.prefetchesDeferred;
        bus_busy += d.busBusyCycles;
        untraced_s += untraced.cellSeconds[i];
        cell_ms.push_back(untraced.cellSeconds[i] * 1e3);
    }
    double run_ticks = 0, hook_ticks = 0, traced_s = 0;
    HookTimes observe, block;
    double mem_replay_ticks = 0, accesses = 0, dram_replay_ticks = 0;
    double dram_reads = 0;
    std::vector<double> scheme_ticks(num_schemes, 0.0);
    for (std::size_t i = 0; i < traced.times.size(); ++i) {
        const CellTimes &t = traced.times[i];
        run_ticks += t.runTicks;
        hook_ticks += t.hookTicks();
        for (auto [sum, hook] : {std::pair{&observe, &t.observe},
                                 std::pair{&block, &t.block}}) {
            sum->ticks += hook->ticks;
            sum->calls += hook->calls;
            sum->enqueueTicks += hook->enqueueTicks;
            sum->enqueueCalls += hook->enqueueCalls;
            sum->cachedTicks += hook->cachedTicks;
            sum->cachedCalls += hook->cachedCalls;
        }
        scheme_ticks[i % num_schemes] += t.observe.ticks + t.block.ticks;
        mem_replay_ticks += t.memReplayTicks;
        accesses += t.accesses;
        dram_replay_ticks += t.dramReplayTicks;
        dram_reads += t.dramReads;
        traced_s += secondsBetween(t.beginNs, t.simulatedNs);
    }
    // Host time per simulated instruction counts every instruction the
    // core ran (warm-up included); modelled rates use the measured
    // (post-warm-up) window, scaled to it where they mix the two.
    const double kinst = committed / 1000.0;
    const double self_ns = (run_ticks - hook_ticks) * nspt;
    // Every scheme runs on every kernel.
    const double scheme_kinst =
        cell_budget * static_cast<double>(spec.kernels.size()) / 1000.0;

    std::vector<Metric> metrics = {
        {"workloads.generate_ns_per_inst",
         ratio(static_cast<double>(generate_ns), records), "ns/inst"},
        {"trace.decode_ns_per_inst",
         ratio(static_cast<double>(decode_ns), records), "ns/inst"},
        {"trace.cache_store_ms", store_ns * 1e-6, "ms"},
        {"trace.cache_bytes_per_inst",
         ratio(static_cast<double>(cache_bytes), records), "B/inst"},
        {"trace.cache_load_ms", load_ns * 1e-6, "ms"},
        {"cpu.run_self_ns_per_inst", ratio(self_ns, budget), "ns/inst"},
        {"cpu.run_self_ns_per_cycle",
         ratio(self_ns * ratio(committed, budget), cycles), "ns/cycle"},
        {"cpu.ipc", ratio(committed, cycles), "inst/cycle"},
        {"cpu.rob_full_per_kinst", ratio(rob_full, kinst), "1/kinst"},
        {"cpu.lsq_full_per_kinst", ratio(lsq_full, kinst), "1/kinst"},
        {"cpu.mispredicts_per_kinst", ratio(mispredicts, kinst),
         "1/kinst"},
        {"prefetch.observe_ns_per_call",
         ratio(observe.ticks * nspt, observe.calls), "ns/call"},
        {"prefetch.observe_per_kinst",
         ratio(observe.calls, budget / 1000.0), "calls/kinst"},
        {"prefetch.block_ns_per_call",
         ratio(block.ticks * nspt, block.calls), "ns/call"},
        {"prefetch.block_per_kinst", ratio(block.calls, budget / 1000.0),
         "calls/kinst"},
    };
    for (const auto &scheme : zooSchemeNames()) {
        const auto it =
            std::find(spec.schemes.begin(), spec.schemes.end(), scheme);
        const std::size_t s = it - spec.schemes.begin();
        metrics.push_back(
            {"prefetch." + slug(scheme) + ".ns_per_kinst",
             it == spec.schemes.end()
                 ? 0.0
                 : ratio(scheme_ticks[s] * nspt, scheme_kinst),
             "ns/kinst"});
    }
    const std::vector<Metric> rest = {
        {"prefetch.issued_per_kinst", ratio(issued, kinst), "1/kinst"},
        {"prefetch.accuracy", ratio(demand_hits, filled), "ratio"},
        {"prefetch.coverage", ratio(timely, covered_misses), "ratio"},
        {"core.cbws_table_hit_rate", ratio(table_hits, table_lookups),
         "ratio"},
        {"mem.enqueue_ns_per_call",
         ratio((observe.enqueueTicks + block.enqueueTicks) * nspt,
               observe.enqueueCalls + block.enqueueCalls),
         "ns/call"},
        {"mem.is_cached_ns_per_call",
         ratio((observe.cachedTicks + block.cachedTicks) * nspt,
               observe.cachedCalls + block.cachedCalls),
         "ns/call"},
        {"mem.replay_ns_per_access", ratio(mem_replay_ticks * nspt, accesses),
         "ns/access"},
        {"mem.l1d_miss_rate", ratio(l1d_misses, l1d_accesses), "ratio"},
        {"mem.llc_mpki", ratio(llc_misses, kinst), "1/kinst"},
        {"mem.mshr_stalls_per_kinst", ratio(mshr_stalls, kinst),
         "1/kinst"},
        {"mem.pf_dropped_frac", ratio(dropped, issued), "ratio"},
        {"mem.l2_bank_conflicts_per_kinst", ratio(bank_conflicts, kinst),
         "1/kinst"},
        {"mem.cross_core_pollution_per_kinst", ratio(pollution, kinst),
         "1/kinst"},
        {"dram.replay_ns_per_read",
         ratio(dram_replay_ticks * nspt, dram_reads), "ns/read"},
        {"dram.row_hit_rate", ratio(row_hits, row_accesses), "ratio"},
        {"dram.read_queue_depth_avg", ratio(queue_depth, dram_read_count),
         "count"},
        {"dram.prefetch_deferred_frac", ratio(deferred, dram_read_count),
         "ratio"},
        {"dram.bus_util", ratio(bus_busy, cycles), "ratio"},
        {"sim.cell_ms_p50", percentile(cell_ms, 50), "ms"},
        {"sim.cell_ms_p90", percentile(cell_ms, 90), "ms"},
        {"sim.cells", static_cast<double>(num_cells), "count"},
        {"sim.pool_busy_frac",
         ratio(pool_busy_s,
               Jobs * secondsBetween(profiled_begin, profiled_end)),
         "ratio"},
        {"sim.pool_queue_wait_s", pool_queue_s, "s"},
        {"sim.checkpoint_s",
         rep.phaseSeconds[static_cast<unsigned>(
             prof::Phase::CheckpointIO)],
         "s"},
        {"sim.checkpoint_bytes_per_cell",
         ratio(static_cast<double>(ckpt_bytes), num_cells), "B/cell"},
        {"sim.trace_overhead_frac",
         traced.times.empty() ? 0.0 : ratio(traced_s, untraced_s) - 1.0,
         "ratio"},
    };
    metrics.insert(metrics.end(), rest.begin(), rest.end());

    report(opts, metrics, gate,
           ", \"ns_per_tick\": " + jsonNumber(nspt) +
               ", \"spans\": " + spans.json());
    return 0;
}
