#include "prefetch/multistride.hh"

#include "base/logging.hh"
#include "base/metrics.hh"
#include "prefetch/registry.hh"

namespace cbws
{

MultistridePrefetcher::MultistridePrefetcher(
    const MultistrideParams &params)
    : params_(params),
      table_(params.tableEntries, "Multistride table-entries")
{
    fatal_if(params_.historyLength == 0,
             "Multistride history-length must be at least 1");
}

unsigned
MultistridePrefetcher::detectPeriod(
    const std::vector<std::int64_t> &deltas) const
{
    const std::size_t n = deltas.size();
    for (unsigned p = 1; p <= params_.maxPeriod; ++p) {
        // Demand two full cycles so a lone coincidence cannot match.
        if (n < 2u * p)
            break;
        bool periodic = true;
        for (std::size_t i = p; i < n && periodic; ++i)
            periodic = deltas[i] == deltas[i - p];
        if (periodic)
            return p;
    }
    return 0;
}

void
MultistridePrefetcher::observeAccess(const PrefetchContext &ctx,
                                     PrefetchSink &sink)
{
    if (ctx.l1Hit && !params_.trainOnHits)
        return;
    ++trainedAccesses_;

    Entry *found = table_.find(ctx.pc);
    if (!found) {
        found = &table_.insert(ctx.pc, Entry());
        found->deltas.reserve(params_.historyLength);
    }
    Entry &e = *found;
    if (!e.primed) {
        e.primed = true;
        e.lastLine = ctx.line;
        return;
    }
    const std::int64_t delta =
        static_cast<std::int64_t>(ctx.line) -
        static_cast<std::int64_t>(e.lastLine);
    e.lastLine = ctx.line;
    if (delta == 0)
        return; // same line again: no pattern information

    if (e.deltas.size() >= params_.historyLength)
        e.deltas.erase(e.deltas.begin());
    e.deltas.push_back(delta);

    const unsigned period = detectPeriod(e.deltas);
    if (period == 0) {
        e.period = 0;
        e.confidence = 0;
        return;
    }
    if (period == e.period) {
        if (e.confidence < params_.confidenceThreshold + 4)
            ++e.confidence;
    } else {
        e.period = period;
        e.confidence = 1;
    }
    ++periodsDetected_;
    if (e.confidence < params_.confidenceThreshold)
        return;

    // The cycle is the last `period` deltas; the next delta repeats
    // the one `period` positions back from the upcoming slot.
    const std::size_t n = e.deltas.size();
    LineAddr target = ctx.line;
    for (unsigned d = 0; d < params_.degree; ++d) {
        const std::int64_t next =
            e.deltas[n - period + (d % period)];
        target = static_cast<LineAddr>(
            static_cast<std::int64_t>(target) + next);
        if (!sink.isCached(target)) {
            sink.issuePrefetch(target, PfSource::Multistride);
            ++issued_;
        }
    }
}

std::uint64_t
MultistridePrefetcher::storageBits() const
{
    // Per entry: PC tag, last line (lower 36 bits), the delta
    // history, 2-bit period, 3-bit confidence.
    return static_cast<std::uint64_t>(params_.tableEntries) *
           (params_.pcBits + 36 +
            params_.historyLength * params_.strideBits + 2 + 3);
}

void
MultistridePrefetcher::exportMetrics(MetricsRegistry &reg,
                                     const std::string &prefix) const
{
    const std::string p = prefix + ".multistride.";
    reg.addScalar(p + "tableOccupancy", table_.size(),
                  "PC table entries in use");
    reg.addScalar(p + "trainedAccesses", trainedAccesses_,
                  "accesses used for training");
    reg.addScalar(p + "periodsDetected", periodsDetected_,
                  "accesses whose delta history matched a cycle");
    reg.addScalar(p + "issued", issued_,
                  "prefetches handed to the sink");
}

ParamSchema
multistrideParamSchema()
{
    return ParamSchema()
        .field("table-entries", &MultistrideParams::tableEntries,
               "PC-indexed table entries (LRU)",
               MaxTableEntries)
        .field("history-length", &MultistrideParams::historyLength,
               "line deltas remembered per PC")
        .field("max-period", &MultistrideParams::maxPeriod,
               "longest repeating delta cycle detected")
        .field("degree", &MultistrideParams::degree,
               "lines prefetched per trigger")
        .field("confidence-threshold",
               &MultistrideParams::confidenceThreshold,
               "cycle repeats required before issuing")
        .field("train-on-hits", &MultistrideParams::trainOnHits,
               "train on L1 hits as well as misses")
        .field("pc-bits", &MultistrideParams::pcBits,
               "PC tag width (storage accounting)")
        .field("stride-bits", &MultistrideParams::strideBits,
               "delta field width (storage accounting)");
}

} // namespace cbws
