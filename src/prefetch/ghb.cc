#include "prefetch/ghb.hh"

#include <algorithm>

#include "base/logging.hh"
#include "prefetch/registry.hh"

namespace cbws
{

GhbPrefetcher::GhbPrefetcher(Mode mode, const GhbParams &params)
    : mode_(mode), params_(params), buffer_(params.bufferEntries)
{
    fatal_if(params_.bufferEntries == 0,
             "GHB buffer-entries must be at least 1");
}

const GhbPrefetcher::Entry *
GhbPrefetcher::entryFor(std::uint64_t seq) const
{
    if (seq == InvalidSeq || seq >= nextSeq_)
        return nullptr;
    if (nextSeq_ - seq > buffer_.size())
        return nullptr; // overwritten by wraparound
    return &buffer_[seq % buffer_.size()];
}

std::vector<LineAddr>
GhbPrefetcher::collect(std::uint64_t head_seq, unsigned max) const
{
    std::vector<LineAddr> lines;
    std::uint64_t seq = head_seq;
    while (lines.size() < max) {
        const Entry *e = entryFor(seq);
        if (!e)
            break;
        lines.push_back(e->line);
        seq = e->prevSeq;
    }
    return lines;
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
    std::uint64_t prev_seq = InvalidSeq;
    const std::uint64_t seq = nextSeq_++;
    if (auto [it, inserted] = indexTable_.try_emplace(key, seq);
        !inserted) {
        prev_seq = it->second;
        it->second = seq;
    }
    buffer_[seq % buffer_.size()] = Entry{ctx.line, prev_seq};

    // Bound the index table: entries whose head has been overwritten
    // are useless; prune opportunistically to keep memory bounded.
    if (indexTable_.size() > 4 * params_.bufferEntries) {
        for (auto it = indexTable_.begin(); it != indexTable_.end();) {
            if (!entryFor(it->second))
                it = indexTable_.erase(it);
            else
                ++it;
        }
    }

    // Delta correlation over this stream's recent history. The walk
    // is bounded by maxChainWalk, so for the default configuration it
    // fits a fixed stack buffer and the training path allocates
    // nothing; oversized configurations fall back to collect().
    constexpr unsigned WalkCap = 64;
    LineAddr recent_buf[WalkCap];
    std::size_t m = 0;
    if (params_.maxChainWalk <= WalkCap) {
        std::uint64_t s = seq;
        while (m < params_.maxChainWalk) {
            const Entry *e = entryFor(s);
            if (!e)
                break;
            recent_buf[m++] = e->line;
            s = e->prevSeq;
        }
    } else {
        const std::vector<LineAddr> heap =
            collect(seq, params_.maxChainWalk);
        if (heap.size() < params_.historyLength + 1)
            return;
        std::vector<LineAddr> rev(heap.rbegin(), heap.rend());
        std::vector<std::int64_t> hdeltas(rev.size() - 1);
        for (std::size_t i = 0; i + 1 < rev.size(); ++i) {
            hdeltas[i] = static_cast<std::int64_t>(rev[i + 1]) -
                         static_cast<std::int64_t>(rev[i]);
        }
        correlateAndIssue(hdeltas.data(), hdeltas.size(), ctx.line,
                          sink);
        return;
    }
    if (m < params_.historyLength + 1)
        return;
    std::reverse(recent_buf, recent_buf + m); // oldest -> newest

    std::int64_t deltas_buf[WalkCap];
    for (std::size_t i = 0; i + 1 < m; ++i) {
        deltas_buf[i] = static_cast<std::int64_t>(recent_buf[i + 1]) -
                        static_cast<std::int64_t>(recent_buf[i]);
    }
    correlateAndIssue(deltas_buf, m - 1, ctx.line, sink);
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
               "circular global history buffer entries")
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
