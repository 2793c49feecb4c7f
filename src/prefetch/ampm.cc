#include "prefetch/ampm.hh"

#include "base/logging.hh"
#include "prefetch/registry.hh"

namespace cbws
{

AmpmPrefetcher::AmpmPrefetcher(const AmpmParams &params)
    : params_(params), maps_(params.mapEntries, "AMPM map-entries")
{
    fatal_if(params_.zoneBytes < LineBytes ||
             !isPowerOf2(params_.zoneBytes),
             "AMPM zone size must be a power-of-two >= one line");
    linesPerZone_ =
        static_cast<unsigned>(params_.zoneBytes / LineBytes);
}

void
AmpmPrefetcher::observeAccess(const PrefetchContext &ctx,
                              PrefetchSink &sink)
{
    if (!ctx.l2Miss && !params_.trainOnHits)
        return;

    const Addr zone = ctx.addr / params_.zoneBytes;
    const int offset = static_cast<int>(
        (ctx.addr % params_.zoneBytes) >> LineShift);

    // Find or allocate the zone's access map.
    ZoneMap *found = maps_.find(zone);
    if (!found)
        found = &maps_.insert(zone, ZoneMap(linesPerZone_, false));
    ZoneMap &map = *found;
    map[static_cast<std::size_t>(offset)] = true;

    // Pattern match: stride k is hot when (l-k) and (l-2k) were both
    // accessed; prefetch (l+k). Small |k| first (spatial locality).
    const Addr zone_base = zone * params_.zoneBytes;
    unsigned issued = 0;
    for (unsigned k = 1;
         k <= params_.maxStride && issued < params_.degree; ++k) {
        for (int sign : {+1, -1}) {
            const int stride = sign * static_cast<int>(k);
            const int b1 = offset - stride;
            const int b2 = offset - 2 * stride;
            const int target = offset + stride;
            if (b1 < 0 || b2 < 0 || target < 0 ||
                b1 >= static_cast<int>(linesPerZone_) ||
                b2 >= static_cast<int>(linesPerZone_) ||
                target >= static_cast<int>(linesPerZone_)) {
                continue;
            }
            if (!map[static_cast<std::size_t>(b1)] ||
                !map[static_cast<std::size_t>(b2)] ||
                map[static_cast<std::size_t>(target)]) {
                continue;
            }
            const LineAddr line = lineOf(
                zone_base +
                static_cast<Addr>(target) * LineBytes);
            if (!sink.isCached(line)) {
                sink.issuePrefetch(line, PfSource::Ampm);
                if (++issued >= params_.degree)
                    break;
            }
        }
    }
}

std::uint64_t
AmpmPrefetcher::storageBits() const
{
    // Per entry: zone tag + 1 bit per line.
    return static_cast<std::uint64_t>(params_.mapEntries) *
           (params_.tagBits + linesPerZone_);
}

ParamSchema
ampmParamSchema()
{
    return ParamSchema()
        .field("zone-bytes", &AmpmParams::zoneBytes,
               "access-map zone size in bytes",
               std::uint64_t(1) << 24)
        .field("map-entries", &AmpmParams::mapEntries,
               "tracked zones (LRU)",
               MaxTableEntries)
        .field("max-stride", &AmpmParams::maxStride,
               "largest candidate stride pattern-matched")
        .field("degree", &AmpmParams::degree,
               "prefetches per trained access")
        .field("train-on-hits", &AmpmParams::trainOnHits,
               "train on L1 hits as well as misses")
        .field("tag-bits", &AmpmParams::tagBits,
               "zone tag width (storage accounting)");
}

} // namespace cbws
