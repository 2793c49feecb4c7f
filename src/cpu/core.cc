#include "cpu/core.hh"

#include <algorithm>
#include <functional>

#include "base/logging.hh"
#include "base/profiler.hh"
#include "base/tuning.hh"

namespace cbws
{

namespace
{

/** Execution latency of a non-memory instruction class. */
Cycle
execLatency(const CoreParams &p, InstClass cls)
{
    switch (cls) {
      case InstClass::IntMul:
        return p.intMulLatency;
      case InstClass::FpAlu:
        return p.fpLatency;
      default:
        return p.intAluLatency;
    }
}

} // anonymous namespace

OooCore::OooCore(const CoreParams &params, Hierarchy &mem,
                 unsigned core_id)
    : params_(params), mem_(mem), bp_(params.branchPred),
      coreId_(core_id)
{
    const std::string prefix =
        core_id == 0 ? "core" : "core" + std::to_string(core_id);
    commitLabel_ = prefix + ".commit";
    robLabel_ = prefix + ".rob";
}

void
OooCore::pushEvent(Cycle at)
{
    events_.push_back(at);
    std::push_heap(events_.begin(), events_.end(),
                   std::greater<Cycle>());
}

std::size_t
OooCore::appendReady(std::size_t begin, std::size_t len, std::size_t n)
{
    std::uint32_t *out = scanBuf_.data();
    const std::size_t end = begin + len;
    std::size_t w = begin >> 6;
    std::uint64_t word =
        ready_[w] & (~std::uint64_t(0) << (begin & 63));
    for (;;) {
        const std::size_t base = w << 6;
        std::uint64_t m = word;
        if (end - base < 64)
            m &= (std::uint64_t(1) << (end - base)) - 1;
        while (m) {
            out[n++] = static_cast<std::uint32_t>(
                base + __builtin_ctzll(m));
            m &= m - 1;
        }
        if (base + 64 >= end)
            break;
        word = ready_[++w];
    }
    return n;
}

void
OooCore::begin(const Trace &trace, std::uint64_t max_insts,
               const CommitHook &on_commit, const AccessHook &on_access,
               std::uint64_t warmup_insts,
               const std::function<void(Cycle)> &on_warmup)
{
    // The ready list wakes a consumer only after its producer's issue
    // stage has passed it, so every completion must land at least one
    // cycle after its issue.
    fatal_if(params_.intAluLatency == 0 || params_.intMulLatency == 0 ||
                 params_.fpLatency == 0 ||
                 mem_.params().l1d.latency == 0,
             "core: execution and L1D hit latencies must be >= 1 cycle");
    // A producer's trace index is its sequence number; NoProducer
    // must stay out of the index space.
    fatal_if(trace.size() >= NoProducer,
             "core: trace of %zu records overflows the 32-bit producer "
             "index space",
             trace.size());
    records_ = trace.records().data();
    traceSize_ = trace.size();
    maxInsts_ = max_insts;
    warmupInsts_ = warmup_insts;
    onCommit_ = on_commit;
    onAccess_ = on_access;
    onWarmup_ = on_warmup;
    stats_ = CoreStats();
    warmSnapshot_ = CoreStats();
    warmed_ = warmup_insts == 0;
    done_ = false;
    rob_.assign(params_.robSize, RobEntry());
    readyAt_.assign(params_.robSize, 0);
    issueBound_.assign(params_.robSize, 0);
    pending_.assign(params_.robSize, 0);
    wakeHead_.assign(params_.robSize, NoLink);
    wakeNext_.assign(2 * params_.robSize, NoLink);
    blockedUntil_.assign(params_.robSize, 0);
    ready_.assign((params_.robSize + 63) / 64, 0);
    scanBuf_.assign(params_.robSize, 0);
    robHead_ = 0;
    robCount_ = 0;
    storeQueue_.assign(params_.stqSize, StoreEntry());
    sqHead_ = 0;
    storeLines_.fill(0);
    fetchQueue_.assign(params_.fetchQueueSize, FetchEntry());
    fqHead_ = 0;
    fqCount_ = 0;
    headSeq_ = 0;
    traceIdx_ = 0;
    fetchAllowedAt_ = 0;
    lastFetchLine_ = ~LineAddr(0);
    fetchInBlock_ = false;
    lastWriter_.fill(NoProducer);
    ldqCount_ = 0;
    stqCount_ = 0;
    lastCommittedInBlock_ = false;
    firstUnissued_ = 0;
    events_.clear();
    lastCycleInBlock_ = false;
    cycleRobFullStalls_ = 0;
    cycleLsqFullStalls_ = 0;
    // Livelock guard: 300 cycles per instruction plus slack,
    // saturating so a huge budget means "no limit" instead of
    // wrapping to a tiny one.
    if (__builtin_mul_overflow(max_insts, Cycle(300), &cycleLimit_) ||
        __builtin_add_overflow(cycleLimit_, Cycle(100000),
                               &cycleLimit_)) {
        cycleLimit_ = Never;
    }
}

unsigned
OooCore::commitStage(Cycle now)
{
    // ---- Commit (in order, up to width) ----
    unsigned committed = 0;
    while (robCount_ > 0 && committed < params_.width &&
           stats_.instructions < maxInsts_) {
        RobEntry &head = rob_[robHead_];
        if (readyAt_[robHead_] > now)
            break; // unissued (Never) or still executing
        const TraceRecord &rec = records_[head.idx];
        if (rec.cls == InstClass::Store) {
            // Stores write the memory system at commit, in program
            // order; they never stall the core.
            head.mem = mem_.store(rec.effAddr, now, coreId_);
            if (onAccess_)
                onAccess_(rec, head.mem, now);
            // Stores commit in program order: this is the queue head.
            --storeLines_[storeBucket(storeQueue_[sqHead_].line)];
            if (++sqHead_ == storeQueue_.size())
                sqHead_ = 0;
            --stqCount_;
            ++stats_.memInstructions;
        } else if (rec.cls == InstClass::Load) {
            --ldqCount_;
            ++stats_.memInstructions;
        } else if (rec.cls == InstClass::Branch) {
            ++stats_.branches;
            if (head.mispredicted)
                ++stats_.branchMispredicts;
        }
        if (onCommit_ && (commitHookMask_ & classBit(rec.cls)))
            onCommit_(rec, head.mem, now);
        lastCommittedInBlock_ = head.inBlock;
        if (++robHead_ == params_.robSize)
            robHead_ = 0;
        --robCount_;
        ++headSeq_;
        if (firstUnissued_ > 0)
            --firstUnissued_;
        ++stats_.instructions;
        ++committed;
        if (!warmed_ && stats_.instructions >= warmupInsts_) {
            warmed_ = true;
            warmSnapshot_ = stats_;
            warmSnapshot_.cycles = now;
            if (onWarmup_)
                onWarmup_(now);
        }
    }
    return committed;
}

Cycle
OooCore::forwardFrom(std::size_t p, LineAddr line, Cycle now) const
{
    // No in-flight store shares the line's hash: none is on the line.
    if (storeLines_[storeBucket(line)] == 0)
        return 0;
    // Youngest-first over the in-flight stores: skip those younger
    // than the load, then the first older one on the line decides.
    const std::size_t load_off = robOffset(p);
    const std::size_t cap = storeQueue_.size();
    for (std::size_t i = stqCount_; i-- > 0;) {
        std::size_t q = sqHead_ + i;
        if (q >= cap)
            q -= cap;
        const StoreEntry &st = storeQueue_[q];
        if (st.line != line || robOffset(st.slot) > load_off)
            continue;
        const Cycle store_ready = readyAt_[st.slot];
        return store_ready == Never ? Never
                                    : std::max(now, store_ready) + 1;
    }
    return 0;
}

void
OooCore::completeIssue(std::size_t p, Cycle ready, Cycle now)
{
    readyAt_[p] = ready;
    clearReady(p);
    for (std::uint32_t link = wakeHead_[p]; link != NoLink;
         link = wakeNext_[link]) {
        const std::size_t c = link >> 1;
        if (ready > issueBound_[c])
            issueBound_[c] = ready;
        if (--pending_[c] == 0)
            setReady(c);
    }
    wakeHead_[p] = NoLink;
    // Completions due in <= 1 cycle are never queried from the
    // future (issuing counts as progress, so no skip starts this
    // cycle); everything else enters the wake-up heap.
    if (ready > now + 1)
        pushEvent(ready);
}

unsigned
OooCore::issueStage(Cycle now)
{
    // ---- Issue / execute ----
    unsigned fu_used = 0;
    unsigned mem_ports_used = 0;
    const std::size_t rob_size = params_.robSize;
    while (firstUnissued_ < robCount_ &&
           readyAt_[physIndex(firstUnissued_)] != Never) {
        ++firstUnissued_;
    }
    if (firstUnissued_ >= robCount_)
        return 0;
    // Collect the window's ready slots in age order (up to two linear
    // bitmask segments around the ring's wrap point). Entries woken
    // by an issue below are not candidates this cycle, which is
    // exact: every completion lies at least one cycle after its issue.
    const std::size_t scan_len = std::min<std::size_t>(
        robCount_ - firstUnissued_, params_.issueWindow);
    const std::size_t phys_start = physIndex(firstUnissued_);
    const std::size_t seg = std::min(scan_len, rob_size - phys_start);
    std::size_t num_cand = appendReady(phys_start, seg, 0);
    if (seg < scan_len)
        num_cand = appendReady(0, scan_len - seg, num_cand);

    for (std::size_t c = 0; c < num_cand; ++c) {
        const std::uint32_t p = scanBuf_[c];
        if (fu_used >= params_.numFUs)
            break;
        if (issueBound_[p] > now)
            continue; // an issued producer is still executing
        RobEntry &e = rob_[p];
        const TraceRecord &rec = records_[e.idx];
        Cycle ready;
        if (rec.cls == InstClass::Load) {
            if (mem_ports_used >= params_.memPortsPerCycle)
                continue;
            if (blockedUntil_[p] > now) {
                // The L1D MSHR file is still full: this retry fails
                // exactly like the last one did.
                mem_.repeatBlockedLoad(now);
                continue;
            }
            // Store-to-load forwarding: an older, uncommitted store
            // to the same line supplies the data.
            const Cycle fwd_ready = forwardFrom(p, rec.line(), now);
            if (fwd_ready == Never)
                continue; // wait for the store to issue
            if (fwd_ready != 0) {
                e.mem.ok = true;
                e.mem.l1Hit = true;
                e.mem.readyAt = fwd_ready;
                ready = fwd_ready;
            } else {
                AccessOutcome out =
                    mem_.load(rec.effAddr, now, coreId_);
                if (!out.ok) {
                    // MSHR back-pressure: retry next cycle.
                    blockedUntil_[p] = mem_.l1dBlockedUntil(coreId_);
                    continue;
                }
                e.mem = out;
                ready = out.readyAt;
                if (onAccess_)
                    onAccess_(rec, out, now);
            }
            ++mem_ports_used;
        } else if (rec.cls == InstClass::Store) {
            // Address/data become ready; the write happens at commit.
            ready = now + 1;
        } else if (rec.cls == InstClass::Branch) {
            ready = now + 1;
            if (e.mispredicted) {
                fetchAllowedAt_ = ready + params_.mispredictPenalty;
                if (trace_ && trace_->wants(now)) {
                    trace_->instant("core", "mispredict",
                                    TraceTrack::Core, now, rec.pc);
                }
            }
        } else {
            ready = now + execLatency(params_, rec.cls);
        }
        completeIssue(p, ready, now);
        ++fu_used;
    }
    return fu_used;
}

unsigned
OooCore::dispatchStage(Cycle now)
{
    // ---- Dispatch (fetch queue -> ROB) ----
    unsigned dispatched = 0;
    while (fqCount_ > 0 && dispatched < params_.width) {
        if (robCount_ >= params_.robSize) {
            ++stats_.robFullStalls;
            if (trace_ && trace_->wants(now)) {
                trace_->instant("core", "rob-full", TraceTrack::Core,
                                now, robCount_);
            }
            break;
        }
        const FetchEntry &fe = fetchQueue_[fqHead_];
        const TraceRecord &rec = records_[fe.idx];
        const std::size_t phys = physIndex(robCount_);
        if (rec.cls == InstClass::Load) {
            if (ldqCount_ >= params_.ldqSize) {
                ++stats_.lsqFullStalls;
                break;
            }
            ++ldqCount_;
        } else if (rec.cls == InstClass::Store) {
            if (stqCount_ >= params_.stqSize) {
                ++stats_.lsqFullStalls;
                break;
            }
            std::size_t q = sqHead_ + stqCount_;
            if (q >= storeQueue_.size())
                q -= storeQueue_.size();
            storeQueue_[q] = StoreEntry{
                rec.line(), static_cast<std::uint32_t>(phys)};
            ++storeLines_[storeBucket(rec.line())];
            ++stqCount_;
        }
        RobEntry &slot = rob_[phys];
        slot = RobEntry();
        slot.idx = fe.idx;
        slot.mispredicted = fe.mispredicted;
        slot.inBlock = fe.inBlock;
        wakeHead_[phys] = NoLink;
        blockedUntil_[phys] = 0;
        // Rename: the sources resolve to the latest older writers
        // before this record claims its destination, so a record
        // with dest == src reads its older producer. A producer's
        // trace index is its sequence number.
        const std::uint32_t srcs[2] = {
            rec.src1 != InvalidReg ? lastWriter_[rec.src1] : NoProducer,
            rec.src2 != InvalidReg ? lastWriter_[rec.src2] : NoProducer};
        if (rec.dest != InvalidReg)
            lastWriter_[rec.dest] = fe.idx;
        if (isBlockMarker(rec.cls) || rec.cls == InstClass::Nop) {
            // Markers are architectural no-ops: complete immediately
            // without consuming a functional unit or a ready bit.
            readyAt_[phys] = now;
        } else {
            // A producer still in the ROB that has not issued gets
            // this entry on its wake list; an issued one bounds the
            // issue cycle directly.
            readyAt_[phys] = Never;
            Cycle bound = 0;
            unsigned pending = 0;
            for (unsigned k = 0; k < 2; ++k) {
                const std::uint32_t seq = srcs[k];
                if (seq == NoProducer || seq < headSeq_)
                    continue;
                const std::size_t pp = physIndex(
                    static_cast<std::size_t>(seq - headSeq_));
                if (readyAt_[pp] == Never) {
                    const std::uint32_t link =
                        static_cast<std::uint32_t>(2 * phys + k);
                    wakeNext_[link] = wakeHead_[pp];
                    wakeHead_[pp] = link;
                    ++pending;
                } else if (readyAt_[pp] > bound) {
                    bound = readyAt_[pp];
                }
            }
            issueBound_[phys] = bound;
            pending_[phys] = static_cast<std::uint8_t>(pending);
            if (pending == 0)
                setReady(phys);
        }
        ++robCount_;
        if (++fqHead_ == fetchQueue_.size())
            fqHead_ = 0;
        --fqCount_;
        ++dispatched;
    }
    return dispatched;
}

unsigned
OooCore::fetchStage(Cycle now)
{
    // ---- Fetch ----
    unsigned fetched = 0;
    const std::size_t fq_cap = fetchQueue_.size();
    auto push_fetch = [this, fq_cap](const FetchEntry &e) {
        std::size_t pos = fqHead_ + fqCount_;
        if (pos >= fq_cap)
            pos -= fq_cap;
        fetchQueue_[pos] = e;
        ++fqCount_;
    };
    while (fetched < params_.width && fqCount_ < fq_cap &&
           traceIdx_ < traceSize_ && now >= fetchAllowedAt_) {
        const TraceRecord &rec = records_[traceIdx_];
        const LineAddr fetch_line = lineOf(rec.pc);
        if (fetch_line != lastFetchLine_) {
            AccessOutcome out = mem_.fetch(rec.pc, now, coreId_);
            if (!out.ok)
                break;
            lastFetchLine_ = fetch_line;
            if (!out.l1Hit) {
                // I-cache miss: this group still enters the pipeline,
                // but fetch stalls until the fill.
                fetchAllowedAt_ = out.readyAt;
            }
        }

        // BLOCK_END itself counts as inside its block.
        if (rec.cls == InstClass::BlockBegin)
            fetchInBlock_ = true;
        FetchEntry e;
        e.idx = static_cast<std::uint32_t>(traceIdx_);
        e.inBlock = fetchInBlock_ || rec.cls == InstClass::BlockEnd;
        if (rec.cls == InstClass::BlockEnd)
            fetchInBlock_ = false;

        ++traceIdx_;
        ++fetched;
        if (rec.cls == InstClass::Branch) {
            auto result = bp_.predictAndTrain(rec.pc, rec.taken,
                                              rec.effAddr);
            e.mispredicted = result.mispredict();
            push_fetch(e);
            if (e.mispredicted) {
                // Fetch resumes once the branch executes (set at
                // issue time).
                fetchAllowedAt_ = Never;
                break;
            }
            if (rec.taken) {
                // Taken branch ends the fetch group and redirects the
                // fetch line.
                lastFetchLine_ = ~LineAddr(0);
                break;
            }
        } else {
            push_fetch(e);
        }
    }
    return fetched;
}

bool
OooCore::step(Cycle now)
{
    const std::uint64_t rob_stalls0 = stats_.robFullStalls;
    const std::uint64_t lsq_stalls0 = stats_.lsqFullStalls;
    // Each stage is its own profiler phase (timed in the cycles
    // runCores() samples).
    prof::StageSwitch stage;
    stage(prof::Phase::Commit);
    const unsigned committed = commitStage(now);
    if (trace_ && committed > 0 && trace_->wants(now)) {
        trace_->counter(commitLabel_.c_str(), now, committed);
        trace_->counter(robLabel_.c_str(), now, robCount_);
    }

    if (stats_.instructions >= maxInsts_) {
        done_ = true;
        return committed > 0;
    }
    if (traceIdx_ >= traceSize_ && robCount_ == 0 && fqCount_ == 0) {
        done_ = true;
        return committed > 0;
    }

    stage(prof::Phase::Issue);
    const unsigned fu_used = issueStage(now);
    stage(prof::Phase::Dispatch);
    const unsigned dispatched = dispatchStage(now);
    stage(prof::Phase::Fetch);
    const unsigned fetched = fetchStage(now);

    // ---- Cycle accounting ----
    bool cycle_in_block;
    if (robCount_ > 0)
        cycle_in_block = rob_[robHead_].inBlock;
    else if (fqCount_ > 0)
        cycle_in_block = fetchQueue_[fqHead_].inBlock;
    else
        cycle_in_block = lastCommittedInBlock_;
    lastCycleInBlock_ = cycle_in_block;
    if (cycle_in_block)
        ++stats_.loopCycles;

    cycleRobFullStalls_ = stats_.robFullStalls - rob_stalls0;
    cycleLsqFullStalls_ = stats_.lsqFullStalls - lsq_stalls0;

    return committed > 0 || fu_used > 0 || dispatched > 0 ||
           fetched > 0;
}

Cycle
OooCore::nextLocalEvent(Cycle now) const
{
    // Lazily drop wake-ups that are already in the past (their
    // instruction completed, possibly committed, cycles ago).
    while (!events_.empty() && events_.front() <= now) {
        std::pop_heap(events_.begin(), events_.end(),
                      std::greater<Cycle>());
        events_.pop_back();
    }
    Cycle next = events_.empty() ? Never : events_.front();
    if (fetchAllowedAt_ != Never && fetchAllowedAt_ > now &&
        fetchAllowedAt_ < next) {
        next = fetchAllowedAt_;
    }
    return next;
}

void
OooCore::addSkippedCycles(Cycle skipped)
{
    if (lastCycleInBlock_)
        stats_.loopCycles += skipped;
    // The skipped cycles are exact repeats of the last stepped cycle
    // (the skip precondition is that nothing moved), so they would
    // have re-hit the same full-ROB / full-LSQ dispatch stalls.
    stats_.robFullStalls += cycleRobFullStalls_ * skipped;
    stats_.lsqFullStalls += cycleLsqFullStalls_ * skipped;
}

CoreStats
OooCore::finish(Cycle end)
{
    stats_.cycles = end;
    if (warmupInsts_ > 0 && warmed_) {
        for (auto counter : CoreStats::Counters)
            stats_.*counter -= warmSnapshot_.*counter;
    }
    records_ = nullptr;
    traceSize_ = 0;
    return stats_;
}

CoreStats
OooCore::run(const Trace &trace, std::uint64_t max_insts,
             const CommitHook &on_commit, const AccessHook &on_access,
             std::uint64_t warmup_insts,
             const std::function<void(Cycle)> &on_warmup)
{
    begin(trace, max_insts, on_commit, on_access, warmup_insts,
          on_warmup);
    return runCores({this}, mem_).front();
}

std::vector<CoreStats>
runCores(const std::vector<OooCore *> &cores, Hierarchy &mem,
         const std::function<void(unsigned, Cycle)> &on_done)
{
    // One scope for the whole replay loop. The memory-system phases
    // nest inside it and claim their own exclusive time; the pipeline
    // stages inside step() split the rest with Decode, which keeps
    // the driver itself (hierarchy tick, skip-ahead, stall replay),
    // in the proportions one cycle in 256 measures.
    PROF_SCOPE(prof::Phase::Decode);
    prof::StageSampler stages(prof::Phase::Decode, 256);

    constexpr Cycle Never = ~Cycle(0);
    const unsigned n = static_cast<unsigned>(cores.size());
    const bool skip_ahead = Tuning::get().skipAhead;
    const Cycle cycle_limit = cores[0]->cycleLimit();
    // The cycle each core finished at; Never while it runs.
    std::vector<Cycle> end(n, Never);
    unsigned running = n;
    Cycle now = 0;
    while (true) {
        stages.beginIteration();
        mem.tick(now);
        const std::uint64_t mshr_stalls0 = mem.mshrStalls();
        bool worked = false;
        for (unsigned c = 0; c < n; ++c) {
            if (end[c] != Never)
                continue;
            worked = cores[c]->step(now) || worked;
            if (cores[c]->done()) {
                end[c] = now;
                --running;
                if (on_done)
                    on_done(c, now);
            }
        }
        if (running == 0)
            break;

        // ---- Idle fast-forward ----
        // When nothing moved this cycle, the earliest state change is
        // either an execution completing, a memory fill draining, or
        // a post-mispredict fetch restart. Jump there instead of
        // spinning (pure simulation speed; architecturally invisible
        // because no pipeline stage had work to do in between).
        // (A failed memory retry does not inhibit the skip: the retry
        // can only succeed once an MSHR drains, and nextEventCycle()
        // includes exactly those fills. Each skipped cycle would have
        // repeated this cycle's failed retries verbatim, so their
        // stall counts are replayed below.)
        if (skip_ahead && !worked && !mem.prefetchWorkPending()) {
            Cycle next_event = mem.nextEventCycle();
            for (unsigned c = 0; c < n; ++c)
                if (end[c] == Never)
                    next_event = std::min(next_event,
                                          cores[c]->nextLocalEvent(now));
            if (next_event != Never && next_event > now + 1) {
                const Cycle skipped = next_event - now - 1;
                for (unsigned c = 0; c < n; ++c)
                    if (end[c] == Never)
                        cores[c]->addSkippedCycles(skipped);
                mem.addSkippedMshrStalls(
                    (mem.mshrStalls() - mshr_stalls0) * skipped);
                now += skipped;
            }
        }

        ++now;
        if (now > cycle_limit) {
            warn("core: cycle limit reached (%llu cycles); possible "
                 "livelock",
                 static_cast<unsigned long long>(now));
            break;
        }
    }

    std::vector<CoreStats> stats;
    stats.reserve(n);
    for (unsigned c = 0; c < n; ++c)
        stats.push_back(cores[c]->finish(end[c] != Never ? end[c] : now));
    return stats;
}

} // namespace cbws
