#include "base/profiler.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "base/json.hh"
#include "base/table.hh"
#include "base/version.hh"

namespace cbws
{
namespace prof
{

const char *
toString(Phase phase)
{
    switch (phase) {
      case Phase::Other:
        return "other";
      case Phase::TraceSynthesis:
        return "trace_synthesis";
      case Phase::Decode:
        return "decode";
      case Phase::CacheLookup:
        return "cache_lookup";
      case Phase::PfObserve:
        return "pf_observe";
      case Phase::PfIssue:
        return "pf_issue";
      case Phase::Dram:
        return "dram";
      case Phase::CheckpointIO:
        return "checkpoint_io";
      case Phase::TraceCacheIO:
        return "trace_cache_io";
      case Phase::Fetch:
        return "fetch";
      case Phase::Dispatch:
        return "dispatch";
      case Phase::Issue:
        return "issue";
      case Phase::Commit:
        return "commit";
      default:
        return "invalid";
    }
}

const char *
describe(Phase phase)
{
    switch (phase) {
      case Phase::Other:
        return "unattributed (driver loops, setup, teardown)";
      case Phase::TraceSynthesis:
        return "workload kernels synthesising trace records";
      case Phase::Decode:
        return "core cycle loop: driver, hierarchy tick";
      case Phase::CacheLookup:
        return "L1-miss / L2 demand processing (L1 hits: caller)";
      case Phase::PfObserve:
        return "prefetcher training (observe, block events)";
      case Phase::PfIssue:
        return "prefetch queue drain into the memory system";
      case Phase::Dram:
        return "MSHR/DRAM fill drain processing";
      case Phase::CheckpointIO:
        return "checkpoint append (seal, write, flush)";
      case Phase::TraceCacheIO:
        return "on-disk trace cache load/store";
      case Phase::Fetch:
        return "OoO fetch: branch prediction, L1I access";
      case Phase::Dispatch:
        return "OoO dispatch: rename, wake-list linking";
      case Phase::Issue:
        return "OoO issue-select, store forwarding, load execute";
      case Phase::Commit:
        return "OoO commit: stores, prefetcher training hooks";
      default:
        return "";
    }
}

namespace detail
{

bool enabledFlag = false;

namespace
{

/** Registry of every thread's slab; slabs outlive their threads. */
struct Global
{
    std::mutex mutex;
    std::vector<std::unique_ptr<ThreadSlab>> slabs;

    // Calibration epoch, set by enable().
    std::uint64_t t0Tsc = 0;
    std::chrono::steady_clock::time_point t0Wall;
    double cpu0 = 0.0;

    // Pool worker aggregates (addPoolStats folds pools in).
    std::vector<WorkerTotals> workers;
    std::uint64_t pools = 0;
    Histogram jobMicros{64, 50.0};
};

Global &
global()
{
    static Global g;
    return g;
}

/** Process CPU seconds (user + system); 0.0 where unsupported. */
double
processCpuSeconds()
{
#if defined(__unix__) || defined(__APPLE__)
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0.0;
    auto tv = [](const struct timeval &t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
#else
    return 0.0;
#endif
}

} // anonymous namespace

thread_local ThreadSlab *tlsSlab = nullptr;

ThreadSlab &
slabSlow()
{
    auto owned = std::make_unique<ThreadSlab>();
    ThreadSlab *mine = owned.get();
    Global &g = global();
    {
        std::lock_guard<std::mutex> lock(g.mutex);
        g.slabs.push_back(std::move(owned));
    }
    tlsSlab = mine;
    return *mine;
}

} // namespace detail

void
enable()
{
    // First-use slab creation takes the registry mutex itself, so
    // resolve this thread's slab before locking.
    detail::ThreadSlab &s = detail::slab();
    detail::Global &g = detail::global();
    std::lock_guard<std::mutex> lock(g.mutex);
    if (detail::enabledFlag)
        return;
    g.t0Tsc = detail::readTsc();
    g.t0Wall = std::chrono::steady_clock::now();
    g.cpu0 = detail::processCpuSeconds();
    detail::enabledFlag = true;
    // Anchor the enabling thread so its first phase delta starts at
    // the epoch and its slab partitions the whole profiled window.
    s.lastTsc = g.t0Tsc;
    s.current = Phase::Other;
}

StageSampler::StageSampler(Phase loop, std::uint32_t period)
    : loop_(loop), period_(period), countdown_(period)
{
    if (!enabled() || period == 0)
        return;
    detail::ThreadSlab &s = accrue();
    active_ = true;
    outer_ = s.stageSampler;
    s.stageSampler = this;
    s.stageTimed = false;
    chargedNow(begin_);
}

void
StageSampler::chargedNow(std::array<std::int64_t, NumPhases> &out) const
{
    const detail::ThreadSlab &s = detail::slab();
    for (unsigned p = 0; p < NumPhases; ++p)
        out[p] = static_cast<std::int64_t>(s.ticks[p]) + s.adjust[p];
}

void
StageSampler::ticksNow(std::array<std::int64_t, NumPhases> &out) const
{
    const detail::ThreadSlab &s = detail::slab();
    for (unsigned p = 0; p < NumPhases; ++p)
        out[p] = static_cast<std::int64_t>(s.ticks[p]);
}

void
StageSampler::startTimed()
{
    // Probe: two back-to-back switch points, whose interval is the
    // overhead every timed interval carries. The second one opens the
    // iteration's first interval.
    enter(loop_);
    const std::uint64_t probe0 = detail::slab().lastTsc;
    enter(loop_);
    probeTicks_ = std::min(probeTicks_, detail::slab().lastTsc - probe0);
    --intervals_[static_cast<unsigned>(loop_)];
    ticksNow(iterBegin_);
    timed_ = true;
    detail::slab().stageTimed = true;
}

void
StageSampler::endTimed()
{
    accrue().stageTimed = false;
    std::array<std::int64_t, NumPhases> now;
    ticksNow(now);
    for (unsigned p = 0; p < NumPhases; ++p)
        sampled_[p] += now[p] - iterBegin_[p];
    timed_ = false;
}

StageSampler::~StageSampler()
{
    if (!active_)
        return;
    if (timed_)
        endTimed();
    detail::ThreadSlab &s = accrue();
    s.stageSampler = outer_;
    s.stageTimed = outer_ && outer_->timed_;
    if (probeTicks_ == ~std::uint64_t(0))
        return; // no iteration was timed
    std::array<std::int64_t, NumPhases> now;
    chargedNow(now);

    // The loop and its stages: the phases timed iterations switched
    // to. Nested phases (cache lookups, prefetcher training) keep
    // their own attribution.
    const unsigned loop = static_cast<unsigned>(loop_);
    const double overhead = static_cast<double>(probeTicks_);
    double total = 0.0;
    double weight_sum = 0.0;
    std::array<double, NumPhases> weight{};
    for (unsigned p = 0; p < NumPhases; ++p) {
        if (p != loop && intervals_[p] == 0)
            continue;
        total += static_cast<double>(now[p] - begin_[p]);
        weight[p] = std::max(
            0.0, static_cast<double>(sampled_[p]) -
                     static_cast<double>(intervals_[p]) * overhead);
        weight_sum += weight[p];
    }
    if (weight_sum <= 0.0)
        return;
    for (unsigned p = 0; p < NumPhases; ++p) {
        if (p == loop || intervals_[p] == 0)
            continue;
        const std::int64_t target = static_cast<std::int64_t>(
            total * weight[p] / weight_sum);
        const std::int64_t shift = target - (now[p] - begin_[p]);
        s.adjust[p] += shift;
        s.adjust[loop] -= shift;
        s.entries[p] += intervals_[p] * period_;
    }
}

void
resetForTest()
{
    detail::Global &g = detail::global();
    std::lock_guard<std::mutex> lock(g.mutex);
    detail::enabledFlag = false;
    for (auto &s : g.slabs)
        *s = detail::ThreadSlab();
    g.workers.clear();
    g.pools = 0;
    g.jobMicros = Histogram(64, 50.0);
    g.t0Tsc = 0;
    g.cpu0 = 0.0;
}

void
addPoolStats(const std::vector<WorkerTotals> &workers,
             const Histogram &job_micros)
{
    detail::Global &g = detail::global();
    std::lock_guard<std::mutex> lock(g.mutex);
    ++g.pools;
    if (g.workers.size() < workers.size())
        g.workers.resize(workers.size());
    for (std::size_t i = 0; i < workers.size(); ++i) {
        g.workers[i].busySeconds += workers[i].busySeconds;
        g.workers[i].queueWaitSeconds += workers[i].queueWaitSeconds;
        g.workers[i].lockWaitSeconds += workers[i].lockWaitSeconds;
        g.workers[i].jobs += workers[i].jobs;
    }
    g.jobMicros.merge(job_micros);
}

Report
report()
{
    detail::Global &g = detail::global();
    Report rep;
    rep.enabled = detail::enabledFlag;
    if (!rep.enabled)
        return rep;

    const std::uint64_t now_tsc = detail::readTsc();
    const auto now_wall = std::chrono::steady_clock::now();
    rep.wallSeconds =
        std::chrono::duration<double>(now_wall - g.t0Wall).count();
    rep.cpuSeconds = detail::processCpuSeconds() - g.cpu0;

    // Calibrate TSC ticks -> seconds over the profiled window.
    const double dtsc = static_cast<double>(now_tsc - g.t0Tsc);
    const double hz =
        rep.wallSeconds > 0.0 ? dtsc / rep.wallSeconds : 0.0;

    // Flush the calling thread's open span so its phases partition
    // the full window (tail time lands in its current phase).
    {
        detail::ThreadSlab &mine = detail::slab();
        if (mine.lastTsc != 0) {
            mine.ticks[static_cast<unsigned>(mine.current)] +=
                now_tsc - mine.lastTsc;
            mine.lastTsc = now_tsc;
        }
    }

    std::lock_guard<std::mutex> lock(g.mutex);
    const detail::ThreadSlab *mine = &detail::slab();
    for (const auto &s : g.slabs) {
        double thread_total = 0.0;
        for (unsigned p = 0; p < NumPhases; ++p) {
            // Fold in SampledScope's zero-sum extrapolation; clamp at
            // zero in case a parent lost more than it had accrued.
            const std::int64_t raw =
                static_cast<std::int64_t>(s->ticks[p]) + s->adjust[p];
            const double sec =
                hz > 0.0 && raw > 0 ? static_cast<double>(raw) / hz
                                    : 0.0;
            rep.phaseSeconds[p] += sec;
            rep.phaseEntries[p] += s->entries[p];
            thread_total += sec;
        }
        if (s.get() == mine)
            rep.mainThreadSeconds += thread_total;
        else
            rep.workerThreadSeconds += thread_total;
    }
    rep.workers = g.workers;
    rep.poolsObserved = g.pools;
    rep.jobMicros = g.jobMicros;
    return rep;
}

std::string
renderTable(const Report &rep)
{
    TextTable t;
    t.header({"phase", "seconds", "%wall", "entries", "covers"});
    double attributed = 0.0;
    for (unsigned p = 0; p < NumPhases; ++p)
        attributed += rep.phaseSeconds[p];
    for (unsigned p = 0; p < NumPhases; ++p) {
        const Phase phase = static_cast<Phase>(p);
        if (phase != Phase::Other && rep.phaseEntries[p] == 0 &&
            rep.phaseSeconds[p] == 0.0) {
            continue;
        }
        t.row({toString(phase), TextTable::num(rep.phaseSeconds[p], 4),
               TextTable::num(rep.wallSeconds > 0
                                  ? 100.0 * rep.phaseSeconds[p] /
                                        rep.wallSeconds
                                  : 0.0,
                              1),
               std::to_string(rep.phaseEntries[p]),
               describe(phase)});
    }
    std::string out = t.render();
    char line[160];
    std::snprintf(line, sizeof(line),
                  "\nwall %.4f s   cpu %.4f s   attributed %.4f s "
                  "(main thread %.4f s, workers %.4f s)\n",
                  rep.wallSeconds, rep.cpuSeconds, attributed,
                  rep.mainThreadSeconds, rep.workerThreadSeconds);
    out += line;

    if (!rep.workers.empty()) {
        TextTable w;
        w.header({"worker", "busy s", "queue-wait s", "lock-wait s",
                  "jobs"});
        for (std::size_t i = 0; i < rep.workers.size(); ++i) {
            const WorkerTotals &wt = rep.workers[i];
            w.row({"w" + std::to_string(i),
                   TextTable::num(wt.busySeconds, 4),
                   TextTable::num(wt.queueWaitSeconds, 4),
                   TextTable::num(wt.lockWaitSeconds, 4),
                   std::to_string(wt.jobs)});
        }
        out += "\n" + w.render();
        std::snprintf(line, sizeof(line),
                      "pools observed: %llu   jobs timed: %llu "
                      "(histogram overflow: %llu)\n",
                      static_cast<unsigned long long>(
                          rep.poolsObserved),
                      static_cast<unsigned long long>(
                          rep.jobMicros.total()),
                      static_cast<unsigned long long>(
                          rep.jobMicros.overflow()));
        out += line;
    }
    return out;
}

void
writeJson(JsonWriter &w, const Report &rep)
{
    w.beginObject();
    w.field("enabled", rep.enabled);
    w.field("wall_seconds", rep.wallSeconds);
    w.field("cpu_seconds", rep.cpuSeconds);
    double attributed = 0.0;
    for (unsigned p = 0; p < NumPhases; ++p)
        attributed += rep.phaseSeconds[p];
    w.field("attributed_seconds", attributed);
    w.field("main_thread_seconds", rep.mainThreadSeconds);
    w.field("worker_thread_seconds", rep.workerThreadSeconds);

    w.key("phases");
    w.beginObject();
    for (unsigned p = 0; p < NumPhases; ++p) {
        w.key(toString(static_cast<Phase>(p)));
        w.beginObject();
        w.field("seconds", rep.phaseSeconds[p]);
        w.field("entries", rep.phaseEntries[p]);
        w.endObject();
    }
    w.endObject();

    w.key("workers");
    w.beginArray();
    for (const WorkerTotals &wt : rep.workers) {
        w.beginObject();
        w.field("busy_seconds", wt.busySeconds);
        w.field("queue_wait_seconds", wt.queueWaitSeconds);
        w.field("lock_wait_seconds", wt.lockWaitSeconds);
        w.field("jobs", wt.jobs);
        w.endObject();
    }
    w.endArray();

    w.key("pool");
    w.beginObject();
    w.field("pools_observed", rep.poolsObserved);
    w.key("job_micros_histogram");
    w.beginObject();
    w.field("bucket_width_us", 50.0);
    w.key("counts");
    w.beginArray();
    for (std::size_t b = 0; b < rep.jobMicros.numBuckets(); ++b)
        w.value(rep.jobMicros.bucket(b));
    w.endArray();
    w.field("overflow", rep.jobMicros.overflow());
    w.field("total", rep.jobMicros.total());
    w.endObject();
    w.endObject();

    w.endObject();
}

bool
writeJsonFile(const std::string &path, const Report &rep)
{
    JsonWriter w;
    w.beginObject();
    w.field("format", "cbws-profile");
    w.field("schema_version", std::uint64_t(1));
    w.key("provenance");
    writeProvenance(w);
    w.key("profile");
    writeJson(w, rep);
    w.endObject();

    std::FILE *out = std::fopen(path.c_str(), "w");
    if (!out)
        return false;
    const std::string text = w.str() + "\n";
    const bool ok =
        std::fwrite(text.data(), 1, text.size(), out) == text.size();
    return std::fclose(out) == 0 && ok;
}

} // namespace prof
} // namespace cbws
