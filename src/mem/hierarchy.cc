#include "mem/hierarchy.hh"

#include <algorithm>
#include <cstring>
#include <strings.h>

#include "base/logging.hh"
#include "base/profiler.hh"

namespace cbws
{

namespace
{

/** Event/trace label of a demand classification. */
const char *
className(DemandClass cls)
{
    switch (cls) {
      case DemandClass::CachedHit:
        return "hit";
      case DemandClass::Timely:
        return "hit:timely-pf";
      case DemandClass::Shorter:
        return "miss:late-pf";
      case DemandClass::NonTimely:
        return "miss:nontimely-pf";
      case DemandClass::Missing:
        return "miss";
      default:
        return "none";
    }
}

struct Backend
{
    const char *name; ///< canonical display form
    const char *description;
    std::unique_ptr<DramBackend> (*factory)(const HierarchyParams &);
};

/** Every DRAM backend, in name order (the `--dram help` order). */
constexpr Backend Backends[] = {
    {"ddr",
     "cycle-level banked model: channels/ranks/banks, open-page rows, "
     "tRCD/tRP/tCL/tFAW/refresh, read/write queues with write-drain, "
     "FR-FCFS-style scheduling that defers prefetches under queue "
     "pressure",
     makeDdrBackend},
    {"fixed",
     "flat latency (Table II: 300 cycles), no bandwidth limit; the "
     "default, bit-identical to the paper's model",
     makeFixedBackend},
};

/** The row named @p name (case-insensitive); nullptr when unknown. */
const Backend *
findBackend(const std::string &name)
{
    for (const Backend &backend : Backends)
        if (std::strlen(backend.name) == name.size() &&
            strcasecmp(backend.name, name.c_str()) == 0)
            return &backend;
    return nullptr;
}

} // anonymous namespace

Result<std::unique_ptr<DramBackend>>
DramBackendRegistry::create(const std::string &name,
                            const HierarchyParams &params) const
{
    if (const Backend *backend = findBackend(name))
        return backend->factory(params);
    std::string known;
    for (const Backend &backend : Backends)
        known += (known.empty() ? "" : ", ") + std::string(backend.name);
    return Error(Errc::NotFound, "no DRAM backend registered as '" +
                                     name + "' (registered: " + known +
                                     ")");
}

bool
DramBackendRegistry::contains(const std::string &name) const
{
    return findBackend(name) != nullptr;
}

std::vector<std::string>
DramBackendRegistry::names() const
{
    std::vector<std::string> out;
    for (const Backend &backend : Backends)
        out.push_back(backend.name);
    return out;
}

std::string
DramBackendRegistry::describe(const std::string &name) const
{
    const Backend *backend = findBackend(name);
    return backend ? backend->description : std::string();
}

const DramBackendRegistry &
dramBackendRegistry()
{
    static const DramBackendRegistry registry{};
    return registry;
}

Hierarchy::Hierarchy(const HierarchyParams &params)
    : params_(params),
      l2_(params.l2, 0x122),
      l2Mshr_(params.l2.mshrs)
{
    fatal_if(params_.numCores == 0, "hierarchy: numCores must be >= 1");
    fatal_if(params_.numCores > 1 && params_.l2Banks == 0,
             "hierarchy: l2Banks must be >= 1 for multicore");
    // Core 0 keeps the historic replacement seeds so a one-core
    // hierarchy is bit-identical to the original single-core model.
    for (unsigned c = 0; c < params_.numCores; ++c) {
        l1d_.emplace_back(params_.l1d, 0x11d + c);
        l1i_.emplace_back(params_.l1i, 0x111 + c);
        l1dMshr_.emplace_back(params_.l1d.mshrs);
        l1iMshr_.emplace_back(params_.l1i.mshrs);
    }
    if (params_.numCores > 1) {
        bankBusyUntil_.assign(params_.l2Banks, 0);
        stats_.perCore.resize(params_.numCores);
    }
    auto backend =
        dramBackendRegistry().create(params.dramBackend, params);
    if (!backend.ok())
        panic("hierarchy: %s", backend.error().str().c_str());
    dram_ = std::move(backend).value();
}

Cycle
Hierarchy::arbitrateL2(LineAddr line, Cycle t)
{
    if (bankBusyUntil_.empty())
        return t;
    Cycle &busy = bankBusyUntil_[line % bankBusyUntil_.size()];
    Cycle start = t;
    if (busy > start) {
        start = busy;
        ++stats_.l2BankConflicts;
    }
    busy = start + 1;
    return start;
}

void
Hierarchy::recordPollutionEviction(LineAddr victim, unsigned aggressor)
{
    if (params_.numCores <= 1 || params_.pollutionFilterEntries == 0)
        return;
    // Bound the filter FIFO-style. Stale FIFO entries (already erased
    // on a pollution hit) just fall out without touching the map.
    while (pollutionFifo_.size() >= params_.pollutionFilterEntries) {
        pollutionMap_.erase(pollutionFifo_.front());
        pollutionFifo_.pop_front();
    }
    auto [it, inserted] = pollutionMap_.emplace(
        victim, static_cast<std::uint8_t>(aggressor));
    if (inserted)
        pollutionFifo_.push_back(victim);
    else
        it->second = static_cast<std::uint8_t>(aggressor);
}

void
Hierarchy::attributePollution(LineAddr line, unsigned core)
{
    if (pollutionMap_.empty())
        return;
    auto it = pollutionMap_.find(line);
    if (it == pollutionMap_.end())
        return;
    const unsigned aggressor = it->second;
    pollutionMap_.erase(it);
    if (aggressor == core)
        return; // a core thrashing itself is not interference
    ++stats_.crossCorePollutionMisses;
    stats_.perCore[core].pollutionVictimMisses++;
    stats_.perCore[aggressor].pollutionCausedMisses++;
}

void
Hierarchy::recordLateness(PfSource src, Cycle lateness)
{
    stats_.pfLife[static_cast<unsigned>(src)].latenessCycles +=
        lateness;
    unsigned bucket = 0;
    if (lateness > 0)
        bucket = floorLog2(lateness) + 1;
    if (bucket >= LatenessBuckets)
        bucket = LatenessBuckets - 1;
    ++stats_.latenessHist[bucket];
}

void
Hierarchy::drainL2(Cycle now)
{
    l2Mshr_.drain(now, [this, now](const MshrFile::Entry &e) {
        const bool prefetched = e.isPrefetch && !e.demanded;
        if (e.isPrefetch) {
            auto &life = stats_.pfLife[static_cast<unsigned>(
                e.pfSource)];
            ++life.filled;
            if (e.demanded) {
                // The demand merged into the fill while it was in
                // flight: useful but late by the wait it imposed.
                ++life.demandHitLate;
                recordLateness(e.pfSource, e.readyAt > e.firstDemandAt
                                               ? e.readyAt -
                                                     e.firstDemandAt
                                               : 0);
            }
        }
        Cache::Victim victim =
            l2_.insert(e.line, now, prefetched, e.pfSource, e.core);
        if (prefetched && params_.prefetchToL1) {
            // Ablation: fill the requesting core's L1D as well
            // (evictions write back into the inclusive L2, which now
            // holds the line).
            Cache::Victim l1v =
                l1d_[e.core].insert(e.line, now, true, e.pfSource);
            if (l1v.valid && l1v.dirty)
                l2_.setDirty(l1v.line);
        }
        if (e.isPrefetch && e.demanded) {
            // The prefetch was useful while still in flight; mark the
            // line as used so it is not later counted as wrong.
            l2_.access(e.line, now, e.isWrite);
        } else if (e.isWrite) {
            l2_.setDirty(e.line);
        }
        if (victim.valid) {
            if (victim.prefetched && !victim.usedAfterPrefetch) {
                ++stats_.wrongPrefetches;
                ++stats_
                      .pfLife[static_cast<unsigned>(victim.pfSource)]
                      .evictedUnused;
                if (trace_ && trace_->wants(now)) {
                    trace_->instant("prefetch", "evict-unused",
                                    TraceTrack::Prefetch, now,
                                    victim.line);
                }
            }
            if (victim.dirty) {
                stats_.dramBytesWritten += LineBytes;
                dram_->write(victim.line, now);
            }
            // A prefetch fill displacing another core's line is the
            // pollution event the interference accounting tracks.
            if (prefetched)
                recordPollutionEviction(victim.line, e.core);
            // Inclusive L2: evictions invalidate every core's L1
            // copies.
            for (unsigned c = 0; c < l1d_.size(); ++c) {
                Cache::Victim l1v = l1d_[c].invalidate(victim.line);
                if (l1v.valid && l1v.dirty) {
                    stats_.dramBytesWritten += LineBytes;
                    dram_->write(l1v.line, now);
                }
                l1i_[c].invalidate(victim.line);
            }
        }
    });
}

void
Hierarchy::drainL1(Cycle now)
{
    for (unsigned c = 0; c < l1dMshr_.size(); ++c) {
        l1dMshr_[c].drain(now, [this, now, c](
                                   const MshrFile::Entry &e) {
            Cache::Victim victim = l1d_[c].insert(e.line, now, false);
            if (e.isWrite)
                l1d_[c].setDirty(e.line);
            if (victim.valid && victim.dirty) {
                // Writeback into the (inclusive) L2.
                if (l2_.contains(victim.line)) {
                    l2_.setDirty(victim.line);
                } else {
                    stats_.dramBytesWritten += LineBytes;
                    dram_->write(victim.line, now);
                }
            }
        });
        l1iMshr_[c].drain(now, [this, now, c](
                                   const MshrFile::Entry &e) {
            l1i_[c].insert(e.line, now, false);
        });
    }
}

void
Hierarchy::issuePrefetches(Cycle now)
{
    unsigned issued = 0;
    while (!prefetchQueue_.empty() &&
           issued < params_.prefetchIssuePerCycle) {
        const QueuedPrefetch &req = prefetchQueue_.front();
        if (l2_.contains(req.line) || l2Mshr_.find(req.line)) {
            ++stats_.prefetchesFiltered;
            ++stats_.pfLife[static_cast<unsigned>(req.src)].merged;
            queuedLines_.erase(req.line);
            prefetchQueue_.pop_front();
            continue;
        }
        if (l2Mshr_.inFlight() + params_.prefetchMshrReserve >=
            params_.l2.mshrs) {
            break; // leave room for demand misses; retry next cycle
        }
        // Prefetch issues contend for the shared-L2 banks like
        // demands (no-op in single-core runs).
        const Cycle t_bank = arbitrateL2(req.line, now);
        const Cycle ready = dram_->read(
            {req.line, t_bank + params_.l2.latency,
             /*isPrefetch=*/true, req.src});
        MshrFile::Entry &e =
            l2Mshr_.allocate(req.line, ready,
                             /*is_prefetch=*/true, /*is_write=*/false);
        e.pfSource = req.src;
        e.core = req.core;
        stats_.dramBytesRead += LineBytes;
        ++stats_.prefetchesIssued;
        if (!stats_.perCore.empty())
            ++stats_.perCore[req.core].prefetchesIssued;
        ++issued;
        if (trace_ && trace_->wants(now)) {
            trace_->complete("prefetch", toString(req.src),
                             TraceTrack::Prefetch, now, ready - now,
                             req.line);
        }
        queuedLines_.erase(req.line);
        prefetchQueue_.pop_front();
    }
}

void
Hierarchy::tickNewCycle(Cycle now)
{
    lastDrainCycle_ = now;
    if (__builtin_expect(prof::enabled(), 0)) {
        // Profiled path only: tick() runs every simulated cycle, so
        // the scope cost stays off the default path entirely. Only
        // bracket ticks where a fill actually completes (nextReady
        // due); in-flight-but-not-ready ticks early-out inside
        // drain() in a few ns, which a ~35 ns timed scope would
        // swamp — and those account for ~98% of all ticks.
        bool fill_work = l2Mshr_.nextReady() <= now;
        for (std::size_t c = 0; !fill_work && c < l1dMshr_.size();
             ++c) {
            fill_work = l1dMshr_[c].nextReady() <= now ||
                        l1iMshr_[c].nextReady() <= now;
        }
        if (fill_work) {
            PROF_SCOPE_SAMPLED(prof::Phase::Dram, 3);
            drainL2(now);
            drainL1(now);
        } else {
            drainL2(now);
            drainL1(now);
        }
        if (!prefetchQueue_.empty()) {
            PROF_SCOPE_SAMPLED(prof::Phase::PfIssue, 3);
            issuePrefetches(now);
        }
        return;
    }
    drainL2(now);
    drainL1(now);
    if (!prefetchQueue_.empty())
        issuePrefetches(now);
}

bool
Hierarchy::prefetchQueued(LineAddr line) const
{
    return queuedLines_.count(line) != 0;
}

void
Hierarchy::mergeQueuedPrefetch(LineAddr line, Cycle now)
{
    if (!prefetchQueued(line))
        return;
    auto it = std::find_if(prefetchQueue_.begin(),
                           prefetchQueue_.end(),
                           [line](const QueuedPrefetch &q) {
                               return q.line == line;
                           });
    if (it == prefetchQueue_.end())
        return;
    ++stats_.pfLife[static_cast<unsigned>(it->src)].merged;
    if (trace_ && trace_->wants(now)) {
        trace_->instant("prefetch", "overtaken-by-demand",
                        TraceTrack::Prefetch, now, line);
    }
    queuedLines_.erase(line);
    prefetchQueue_.erase(it);
}

Cycle
Hierarchy::l2DemandAccess(LineAddr line, Cycle t_l2, bool is_write,
                          bool is_data, unsigned core,
                          DemandClass &cls, bool &stall)
{
    stall = false;
    t_l2 = arbitrateL2(line, t_l2);
    if (is_data) {
        ++stats_.demandL2Accesses;
        if (!stats_.perCore.empty())
            ++stats_.perCore[core].demandL2Accesses;
    }

    // Hit in the L2 arrays? One walk answers presence, timeliness
    // classification and prefetch-source attribution together.
    const Cache::Probe probe = l2_.accessClassify(line, t_l2, is_write);
    if (probe.hit) {
        if (probe.wasUnusedPrefetch) {
            cls = DemandClass::Timely;
            const PfSource src = probe.pfSource;
            ++stats_.pfLife[static_cast<unsigned>(src)]
                  .demandHitTimely;
            recordLateness(src, 0);
        } else {
            cls = DemandClass::CachedHit;
        }
        return t_l2 + params_.l2.latency;
    }

    // Merge into an in-flight fill?
    if (MshrFile::Entry *e = l2Mshr_.find(line)) {
        cls = e->isPrefetch && !e->demanded ? DemandClass::Shorter
                                            : DemandClass::Missing;
        if (!e->demanded)
            e->firstDemandAt = t_l2;
        e->demanded = true;
        e->isWrite |= is_write;
        return std::max(e->readyAt, t_l2 + params_.l2.latency);
    }

    // Identified by the prefetcher but the request is still queued:
    // the demand takes over (non-timely prefetch).
    if (prefetchQueued(line)) {
        mergeQueuedPrefetch(line, t_l2);
        cls = DemandClass::NonTimely;
    } else {
        cls = DemandClass::Missing;
    }

    if (l2Mshr_.full()) {
        stall = true;
        return 0;
    }
    const Cycle ready = dram_->read(
        {line, t_l2 + params_.l2.latency,
         /*isPrefetch=*/false, PfSource::Unknown});
    MshrFile::Entry &e =
        l2Mshr_.allocate(line, ready, /*is_prefetch=*/false, is_write);
    e.core = static_cast<std::uint8_t>(core);
    if (is_data) {
        ++stats_.llcDemandMisses;
        if (!stats_.perCore.empty()) {
            ++stats_.perCore[core].llcDemandMisses;
            attributePollution(line, core);
        }
    }
    stats_.dramBytesRead += LineBytes;
    return ready;
}

AccessOutcome
Hierarchy::demandAccess(LineAddr line, Cycle now, bool is_write,
                        bool is_data, bool can_stall, unsigned core)
{
    tick(now);

    Cache &l1 = is_data ? l1d_[core] : l1i_[core];
    MshrFile &l1m = is_data ? l1dMshr_[core] : l1iMshr_[core];
    const CacheParams &l1p = is_data ? params_.l1d : params_.l1i;
    CoreMemStats *cstats =
        stats_.perCore.empty() ? nullptr : &stats_.perCore[core];

    // Back-pressured retry fast path. A stalling requester whose line
    // neither hits the L1 (access() is side-effect-free on a miss)
    // nor merges into an in-flight fill, while the L1 MSHR file is
    // full, fails with exactly one observable effect: the mshrStalls
    // count. The core retries such a load every cycle during a stall
    // epoch, so skipping the count-then-undo bookkeeping of the slow
    // path below matters; the outcome is bit-identical.
    if (can_stall && l1m.full() && !l1.contains(line)) {
        if (MshrFile::Entry *e = l1m.find(line)) {
            e->isWrite |= is_write;
            if (is_data) {
                ++stats_.l1dAccesses;
                ++stats_.l1dMisses;
                if (cstats) {
                    ++cstats->l1dAccesses;
                    ++cstats->l1dMisses;
                }
            } else {
                ++stats_.l1iAccesses;
                ++stats_.l1iMisses;
                if (cstats) {
                    ++cstats->l1iAccesses;
                    ++cstats->l1iMisses;
                }
            }
            AccessOutcome out;
            out.readyAt = std::max(e->readyAt, now + l1p.latency);
            return out;
        }
        ++stats_.mshrStalls;
        AccessOutcome out;
        out.ok = false;
        return out;
    }

    if (is_data) {
        ++stats_.l1dAccesses;
        if (cstats)
            ++cstats->l1dAccesses;
    } else {
        ++stats_.l1iAccesses;
        if (cstats)
            ++cstats->l1iAccesses;
    }

    AccessOutcome out;
    if (l1.access(line, now, is_write)) {
        out.l1Hit = true;
        out.readyAt = now + l1p.latency;
        return out;
    }
    if (is_data) {
        ++stats_.l1dMisses;
        if (cstats)
            ++cstats->l1dMisses;
    } else {
        ++stats_.l1iMisses;
        if (cstats)
            ++cstats->l1iMisses;
    }

    // Merge into an in-flight L1 fill: the L2-level classification
    // already happened when the primary miss went out.
    if (MshrFile::Entry *e = l1m.find(line)) {
        e->isWrite |= is_write;
        out.readyAt = std::max(e->readyAt, now + l1p.latency);
        return out;
    }

    if (l1m.full()) {
        if (can_stall) {
            ++stats_.mshrStalls;
            out.ok = false;
            // Undo the access counts so the retry is not
            // double-counted.
            if (is_data) {
                --stats_.l1dMisses;
                --stats_.l1dAccesses;
                if (cstats) {
                    --cstats->l1dMisses;
                    --cstats->l1dAccesses;
                }
            } else {
                --stats_.l1iMisses;
                --stats_.l1iAccesses;
                if (cstats) {
                    --cstats->l1iMisses;
                    --cstats->l1iAccesses;
                }
            }
            return out;
        }
        // Non-stalling requester (stores): account the L2 access for
        // MPKI purposes but skip the fill.
        PROF_SCOPE_SAMPLED(prof::Phase::CacheLookup, 3);
        bool stall = false;
        DemandClass cls = DemandClass::None;
        Cycle ready = l2DemandAccess(line, now + l1p.latency, is_write,
                                     is_data, core, cls, stall);
        if (!stall && is_data && cls != DemandClass::None)
            ++stats_.classCounts[static_cast<int>(cls)];
        out.readyAt = stall ? now + l1p.latency : ready;
        out.cls = cls;
        return out;
    }

    // The timed scope brackets only the primary-miss path (L2 arrays
    // + DRAM timing + MSHR allocate): L1 hits, secondary-miss merges
    // and MSHR-full retries are each a handful of ns and fire per
    // replayed access, so a ~35 ns scope around them would measure
    // mostly itself (their time reports under the caller's phase).
    PROF_SCOPE_SAMPLED(prof::Phase::CacheLookup, 3);
    bool stall = false;
    DemandClass cls = DemandClass::None;
    const Cycle l2_ready =
        l2DemandAccess(line, now + l1p.latency, is_write, is_data,
                       core, cls, stall);
    if (stall) {
        if (can_stall) {
            ++stats_.mshrStalls;
            out.ok = false;
            // Undo the demand-access count so the retry is not
            // double-counted.
            if (is_data) {
                --stats_.demandL2Accesses;
                --stats_.l1dMisses;
                --stats_.l1dAccesses;
                if (cstats) {
                    --cstats->demandL2Accesses;
                    --cstats->l1dMisses;
                    --cstats->l1dAccesses;
                }
            } else {
                --stats_.l1iMisses;
                --stats_.l1iAccesses;
                if (cstats) {
                    --cstats->l1iMisses;
                    --cstats->l1iAccesses;
                }
            }
            return out;
        }
        out.readyAt = now + l1p.latency;
        return out;
    }
    if (is_data && cls != DemandClass::None) {
        ++stats_.classCounts[static_cast<int>(cls)];
        if (trace_ && cls != DemandClass::CachedHit &&
            trace_->wants(now)) {
            trace_->complete("cache", className(cls),
                             TraceTrack::Cache, now,
                             l2_ready > now ? l2_ready - now : 1,
                             line);
        }
    }

    const Cycle l1_ready = l2_ready + l1p.latency;
    l1m.allocate(line, l1_ready, /*is_prefetch=*/false, is_write);
    out.readyAt = l1_ready;
    out.cls = cls;
    return out;
}

AccessOutcome
Hierarchy::load(Addr addr, Cycle now, unsigned core)
{
    return demandAccess(lineOf(addr), now, /*is_write=*/false,
                        /*is_data=*/true, /*can_stall=*/true, core);
}

AccessOutcome
Hierarchy::store(Addr addr, Cycle now, unsigned core)
{
    return demandAccess(lineOf(addr), now, /*is_write=*/true,
                        /*is_data=*/true, /*can_stall=*/false, core);
}

AccessOutcome
Hierarchy::fetch(Addr pc, Cycle now, unsigned core)
{
    return demandAccess(lineOf(pc), now, /*is_write=*/false,
                        /*is_data=*/false, /*can_stall=*/true, core);
}

void
Hierarchy::enqueuePrefetch(LineAddr line, PfSource src, unsigned core)
{
    ++stats_.prefetchesRequested;
    if (!stats_.perCore.empty())
        ++stats_.perCore[core].prefetchesRequested;
    auto &life = stats_.pfLife[static_cast<unsigned>(src)];
    ++life.issued;
    if (l2_.contains(line) || l2Mshr_.find(line) ||
        prefetchQueued(line)) {
        ++stats_.prefetchesFiltered;
        ++life.merged;
        return;
    }
    if (prefetchQueue_.size() >= params_.prefetchQueueEntries) {
        const QueuedPrefetch &old = prefetchQueue_.front();
        ++stats_.prefetchesDropped;
        ++stats_.pfLife[static_cast<unsigned>(old.src)].dropped;
        queuedLines_.erase(old.line);
        prefetchQueue_.pop_front();
    }
    queuedLines_.insert(line);
    prefetchQueue_.push_back(
        QueuedPrefetch{line, src, static_cast<std::uint8_t>(core)});
}

bool
Hierarchy::isCachedOrInFlightL2(LineAddr line) const
{
    return l2_.contains(line) || l2Mshr_.find(line) != nullptr;
}

bool
Hierarchy::isCachedL1D(LineAddr line, unsigned core) const
{
    return l1d_[core].contains(line);
}

Cycle
Hierarchy::nextEventCycle() const
{
    Cycle next = l2Mshr_.nextReady();
    for (unsigned c = 0; c < l1dMshr_.size(); ++c) {
        if (l1dMshr_[c].nextReady() < next)
            next = l1dMshr_[c].nextReady();
        if (l1iMshr_[c].nextReady() < next)
            next = l1iMshr_[c].nextReady();
    }
    return next;
}

bool
Hierarchy::prefetchWorkPending() const
{
    return !prefetchQueue_.empty() &&
           l2Mshr_.inFlight() + params_.prefetchMshrReserve <
           params_.l2.mshrs;
}

void
Hierarchy::finalize()
{
    if (finalized_)
        return;
    finalized_ = true;

    stats_.wrongPrefetches += l2_.countUnusedPrefetched();

    // Lifecycle epilogue: settle every request that is still somewhere
    // in the machine so the conservation laws close.
    std::uint64_t resident[NumPfSources] = {};
    l2_.countUnusedPrefetchedBySource(resident);
    for (unsigned s = 0; s < NumPfSources; ++s)
        stats_.pfLife[s].residentAtEnd += resident[s];

    // In-flight prefetch fills: account them as if the fill completed
    // (the DRAM read already happened).
    for (const auto &e : l2Mshr_.entries()) {
        if (!e.valid || !e.isPrefetch)
            continue;
        auto &life = stats_.pfLife[static_cast<unsigned>(e.pfSource)];
        ++life.filled;
        if (e.demanded) {
            ++life.demandHitLate;
            recordLateness(e.pfSource,
                           e.readyAt > e.firstDemandAt
                               ? e.readyAt - e.firstDemandAt
                               : 0);
        } else {
            ++life.residentAtEnd;
        }
    }

    // Requests still queued never reached memory at all.
    for (const auto &req : prefetchQueue_) {
        ++stats_.pfLife[static_cast<unsigned>(req.src)].dropped;
    }
    prefetchQueue_.clear();
    queuedLines_.clear();

    // Shared-L2 occupancy attribution by owner core.
    if (!stats_.perCore.empty()) {
        std::vector<std::uint64_t> owned(stats_.perCore.size(), 0);
        l2_.countResidentByOwner(owned.data(),
                                 static_cast<unsigned>(owned.size()));
        for (unsigned c = 0; c < stats_.perCore.size(); ++c)
            stats_.perCore[c].l2ResidentLines = owned[c];
    }
}

} // namespace cbws
