#include "prefetch/pangloss.hh"

#include "base/logging.hh"
#include "base/metrics.hh"
#include "prefetch/registry.hh"

namespace cbws
{

PanglossPrefetcher::PanglossPrefetcher(const PanglossParams &params)
    : params_(params),
      pages_(params.pageEntries, "Pangloss page-entries")
{
    fatal_if(params_.assoc == 0, "Pangloss assoc must be at least 1");
    transitions_.resize(2 * linesPerPage() - 1);
}

unsigned
PanglossPrefetcher::linesPerPage() const
{
    const std::uint64_t lines = params_.pageBytes / LineBytes;
    return lines ? static_cast<unsigned>(lines) : 1u;
}

std::size_t
PanglossPrefetcher::setIndex(std::int32_t delta) const
{
    // Deltas span [-(L-1), L-1]; shift into [0, 2L-2]. Zero never
    // occurs (same-line accesses record no transition) but maps to a
    // valid slot regardless.
    return static_cast<std::size_t>(
        delta + static_cast<std::int32_t>(linesPerPage()) - 1);
}

void
PanglossPrefetcher::recordTransition(std::int32_t from,
                                     std::int32_t to)
{
    std::vector<Candidate> &set = transitions_[setIndex(from)];
    ++transitionsRecorded_;
    for (Candidate &cand : set) {
        if (cand.delta != to)
            continue;
        if (++cand.count > params_.maxCounter) {
            // Compression: halve the whole set, dropping the
            // candidates that round to zero.
            ++setsCompressed_;
            std::vector<Candidate> kept;
            kept.reserve(set.size());
            for (const Candidate &c : set)
                if (c.count / 2 > 0)
                    kept.push_back({c.delta, c.count / 2});
            set = std::move(kept);
        }
        return;
    }
    if (set.size() < params_.assoc) {
        set.push_back({to, 1});
        return;
    }
    // Evict the least-frequent candidate (first such entry, so the
    // choice is deterministic).
    std::size_t victim = 0;
    for (std::size_t i = 1; i < set.size(); ++i)
        if (set[i].count < set[victim].count)
            victim = i;
    set[victim] = {to, 1};
}

const PanglossPrefetcher::Candidate *
PanglossPrefetcher::bestNext(std::int32_t from) const
{
    const std::vector<Candidate> &set = transitions_[setIndex(from)];
    if (set.empty())
        return nullptr;
    const Candidate *best = nullptr;
    unsigned total = 0;
    for (const Candidate &cand : set) {
        total += cand.count;
        // Ties break toward the smaller delta for determinism.
        if (!best || cand.count > best->count ||
            (cand.count == best->count && cand.delta < best->delta))
            best = &cand;
    }
    if (best->count * 100 < total * params_.confidencePct)
        return nullptr;
    return best;
}

void
PanglossPrefetcher::observeAccess(const PrefetchContext &ctx,
                                  PrefetchSink &sink)
{
    if (ctx.l1Hit && !params_.trainOnHits)
        return;
    const unsigned lines = linesPerPage();
    const std::uint64_t page = ctx.line / lines;
    const unsigned offset = static_cast<unsigned>(ctx.line % lines);

    PageEntry *found = pages_.find(page);
    PageEntry &entry = found ? *found : pages_.insert(page, PageEntry());
    const std::int32_t delta =
        static_cast<std::int32_t>(offset) -
        static_cast<std::int32_t>(entry.lastOffset);
    const bool hadDelta = entry.haveDelta;
    const std::int32_t prevDelta = entry.lastDelta;
    entry.lastOffset = offset;
    if (delta == 0)
        return; // same line: no transition, chain state unchanged
    entry.lastDelta = delta;
    entry.haveDelta = true;
    if (hadDelta)
        recordTransition(prevDelta, delta);

    // Chain-walk the Markov table from the current delta, staying
    // within the page.
    ++chainWalks_;
    std::int32_t cur = delta;
    std::int32_t walkOffset = static_cast<std::int32_t>(offset);
    const LineAddr pageBase = ctx.line - offset;
    for (unsigned d = 0; d < params_.degree; ++d) {
        const Candidate *next = bestNext(cur);
        if (!next)
            break;
        walkOffset += next->delta;
        if (walkOffset < 0 ||
            walkOffset >= static_cast<std::int32_t>(lines))
            break;
        const LineAddr target =
            pageBase + static_cast<unsigned>(walkOffset);
        if (!sink.isCached(target)) {
            sink.issuePrefetch(target, PfSource::Markov);
            ++issued_;
        }
        cur = next->delta;
    }
}

std::uint64_t
PanglossPrefetcher::storageBits() const
{
    const unsigned lines = linesPerPage();
    const unsigned offsetBits = floorLog2(lines) + 1;
    const unsigned deltaBits = offsetBits + 1; ///< signed in-page delta
    // Page cache: tag + last offset + last delta + valid. Transition
    // table: per set, assoc x (delta + counter).
    const std::uint64_t pageCacheBits =
        static_cast<std::uint64_t>(params_.pageEntries) *
        (params_.tagBits + offsetBits + deltaBits + 1);
    const std::uint64_t tableBits =
        static_cast<std::uint64_t>(2 * lines - 1) * params_.assoc *
        (deltaBits + params_.counterBits);
    return pageCacheBits + tableBits;
}

void
PanglossPrefetcher::exportMetrics(MetricsRegistry &reg,
                                  const std::string &prefix) const
{
    const std::string p = prefix + ".pangloss.";
    reg.addScalar(p + "pageOccupancy", pages_.size(),
                  "page-cache entries in use");
    reg.addScalar(p + "transitionsRecorded", transitionsRecorded_,
                  "delta transitions trained into the Markov table");
    reg.addScalar(p + "setsCompressed", setsCompressed_,
                  "transition sets halved on counter saturation");
    reg.addScalar(p + "chainWalks", chainWalks_,
                  "prediction walks started");
    reg.addScalar(p + "issued", issued_,
                  "prefetches handed to the sink");
}

ParamSchema
panglossParamSchema()
{
    return ParamSchema()
        .field("page-bytes", &PanglossParams::pageBytes,
               "delta-tracking page size in bytes",
               std::uint64_t(1) << 24)
        .field("page-entries", &PanglossParams::pageEntries,
               "tracked pages (LRU)",
               MaxTableEntries)
        .field("assoc", &PanglossParams::assoc,
               "candidates per transition set")
        .field("max-counter", &PanglossParams::maxCounter,
               "saturating count before the set is halved")
        .field("degree", &PanglossParams::degree,
               "deepest chain walk per trigger")
        .field("confidence-pct", &PanglossParams::confidencePct,
               "min share (%) of a set's total count to follow")
        .field("train-on-hits", &PanglossParams::trainOnHits,
               "train on L1 hits as well as misses")
        .field("counter-bits", &PanglossParams::counterBits,
               "counter width (storage accounting)")
        .field("tag-bits", &PanglossParams::tagBits,
               "page tag width (storage accounting)");
}

} // namespace cbws
