#include "prefetch/stride.hh"

#include "prefetch/registry.hh"

namespace cbws
{

StridePrefetcher::StridePrefetcher(const StrideParams &params)
    : params_(params),
      table_(params.tableEntries, "Stride table-entries")
{
}

void
StridePrefetcher::observeAccess(const PrefetchContext &ctx,
                          PrefetchSink &sink)
{
    // Classic miss-triggered configuration: only true cache misses
    // train and trigger (the conservatism the paper's Section II
    // contrasts CBWS against).
    if (!ctx.l2Miss && !params_.trainOnHits)
        return;

    Entry *found = table_.find(ctx.pc);
    if (!found) {
        // A new stream; a full table evicts its LRU stream.
        Entry e;
        e.lastLine = ctx.line;
        table_.insert(ctx.pc, e);
        return;
    }

    Entry &e = *found;
    const std::int64_t delta =
        static_cast<std::int64_t>(ctx.line) -
        static_cast<std::int64_t>(e.lastLine);
    if (delta == e.stride && delta != 0) {
        if (e.confidence < 3)
            ++e.confidence;
    } else {
        if (e.confidence > 0) {
            --e.confidence;
        } else {
            e.stride = delta;
        }
    }
    e.lastLine = ctx.line;

    if (e.confidence >= params_.confidenceThreshold && e.stride != 0) {
        LineAddr target = ctx.line;
        for (unsigned d = 0; d < params_.degree; ++d) {
            target = static_cast<LineAddr>(
                static_cast<std::int64_t>(target) + e.stride);
            if (!sink.isCached(target))
                sink.issuePrefetch(target, PfSource::Stride);
        }
    }
}

std::uint64_t
StridePrefetcher::storageBits() const
{
    // Table III: (PC + 2 x stride) x entries.
    return static_cast<std::uint64_t>(params_.pcBits +
                                      2 * params_.strideBits) *
           params_.tableEntries;
}

ParamSchema
strideParamSchema()
{
    return ParamSchema()
        .field("table-entries", &StrideParams::tableEntries,
               "reference prediction table entries (LRU)",
               MaxTableEntries)
        .field("degree", &StrideParams::degree,
               "lines prefetched per trigger")
        .field("confidence-threshold",
               &StrideParams::confidenceThreshold,
               "stride repeats required before issuing")
        .field("train-on-hits", &StrideParams::trainOnHits,
               "train on L1 hits as well as misses")
        .field("pc-bits", &StrideParams::pcBits,
               "PC tag width (storage accounting)")
        .field("stride-bits", &StrideParams::strideBits,
               "stride field width (storage accounting)");
}

} // namespace cbws
