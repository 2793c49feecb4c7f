#include "prefetch/ghb.hh"

#include <algorithm>

#include "base/logging.hh"
#include "prefetch/registry.hh"

namespace cbws
{

GhbPrefetcher::GhbPrefetcher(Mode mode, const GhbParams &params)
    : mode_(mode), params_(params), buffer_(params.bufferEntries),
      walk_(std::min(params.maxChainWalk, params.bufferEntries))
{
    fatal_if(params_.bufferEntries == 0,
             "GHB buffer-entries must be at least 1");
}

void
GhbPrefetcher::observeAccess(const PrefetchContext &ctx, PrefetchSink &sink)
{
    // GHB records cache *misses* (Nesbit & Smith): only accesses that
    // found the L2 without ready data train and trigger.
    if (!ctx.l2Miss && !params_.trainOnHits)
        return;

    const Addr key = mode_ == Mode::GlobalDC ? 0 : ctx.pc;

    // Link the new miss into its stream and update the index table.
    const StreamHead head{nextSeq_++, nextSlot_};
    if (++nextSlot_ == buffer_.size())
        nextSlot_ = 0;
    StreamHead prev;
    if (auto [it, inserted] = indexTable_.try_emplace(key, head);
        !inserted) {
        prev = it->second;
        it->second = head;
    }
    buffer_[head.slot] = Entry{ctx.line, prev.seq, prev.slot};

    // Bound the index table: entries whose head has been overwritten
    // are useless; prune opportunistically to keep memory bounded.
    if (indexTable_.size() > 4 * params_.bufferEntries) {
        for (auto it = indexTable_.begin(); it != indexTable_.end();) {
            if (!live(it->second.seq))
                it = indexTable_.erase(it);
            else
                ++it;
        }
    }

    // Delta correlation over this stream's recent history, walked
    // newest first into the preallocated scratch buffer.
    std::int64_t *recent = walk_.data();
    std::size_t m = 0;
    for (StreamHead at = head; m < walk_.size() && live(at.seq);) {
        const Entry &e = buffer_[at.slot];
        recent[m++] = static_cast<std::int64_t>(e.line);
        at = StreamHead{e.prevSeq, e.prevSlot};
    }
    if (m < params_.historyLength + 1)
        return;
    std::reverse(recent, recent + m); // oldest -> newest
    // Deltas in place: recent[i] becomes recent[i + 1] - recent[i].
    for (std::size_t i = 0; i + 1 < m; ++i)
        recent[i] = recent[i + 1] - recent[i];
    correlateAndIssue(recent, m - 1, ctx.line, sink);
}

void
GhbPrefetcher::correlateAndIssue(const std::int64_t *deltas,
                                 std::size_t n, LineAddr trigger,
                                 PrefetchSink &sink) const
{
    // Correlate on the last two deltas (history length 3 addresses).
    if (n < 2)
        return;
    const std::int64_t d1 = deltas[n - 2];
    const std::int64_t d2 = deltas[n - 1];

    for (std::size_t k = n - 2; k >= 2; --k) {
        if (deltas[k - 2] == d1 && deltas[k - 1] == d2) {
            // Replay the deltas that followed the earlier occurrence.
            LineAddr target = trigger;
            for (unsigned d = 0; d < params_.degree && k + d < n;
                 ++d) {
                target = static_cast<LineAddr>(
                    static_cast<std::int64_t>(target) + deltas[k + d]);
                if (!sink.isCached(target))
                    sink.issuePrefetch(target, PfSource::Ghb);
            }
            return;
        }
    }
}

std::uint64_t
GhbPrefetcher::storageBits() const
{
    // Table III: G/DC is (3 history strides + 3 prefetch strides) per
    // entry; PC/DC additionally stores a PC per entry.
    std::uint64_t bits_per_entry = 2ull * params_.historyLength *
                                   params_.strideBits;
    if (mode_ == Mode::PcDC)
        bits_per_entry += params_.pcBits;
    return bits_per_entry * params_.bufferEntries;
}

ParamSchema
ghbParamSchema()
{
    return ParamSchema()
        .field("buffer-entries", &GhbParams::bufferEntries,
               "circular global history buffer entries",
               MaxTableEntries)
        .field("history-length", &GhbParams::historyLength,
               "addresses per delta-correlation window")
        .field("degree", &GhbParams::degree,
               "deltas prefetched on a correlation match")
        .field("max-chain-walk", &GhbParams::maxChainWalk,
               "buffer entries examined per lookup")
        .field("train-on-hits", &GhbParams::trainOnHits,
               "train on L1 hits as well as misses")
        .field("pc-bits", &GhbParams::pcBits,
               "PC tag width (storage accounting)")
        .field("stride-bits", &GhbParams::strideBits,
               "delta field width (storage accounting)");
}

} // namespace cbws
