#include "prefetch/sms.hh"

#include <algorithm>

#include "base/logging.hh"
#include "base/metrics.hh"
#include "prefetch/registry.hh"

namespace cbws
{

SmsPrefetcher::SmsPrefetcher(const SmsParams &params)
    : params_(params), agt_(params.agtEntries, "SMS agt-entries"),
      filter_(params.filterEntries, "SMS filter-entries")
{
    fatal_if(params_.regionBytes < LineBytes ||
             !isPowerOf2(params_.regionBytes),
             "SMS region size must be a power-of-two >= one line");
    linesPerRegion_ =
        static_cast<unsigned>(params_.regionBytes / LineBytes);
    fatal_if(linesPerRegion_ > 64,
             "SMS pattern is limited to 64 lines per region");
    fatal_if(params_.phtAssoc == 0, "SMS pht-assoc must be at least 1");
    // The PHT is pht-entries / pht-assoc sets: a remainder would be
    // counted as storage but never indexed.
    fatal_if(params_.phtEntries == 0 ||
                 params_.phtEntries % params_.phtAssoc != 0,
             "SMS pht-entries must be a positive multiple of pht-assoc "
             "(%u), not %u",
             params_.phtAssoc, params_.phtEntries);
    pht_.assign(params_.phtEntries, PhtEntry{});
}

void
SmsPrefetcher::endGeneration(const Generation &gen)
{
    phtInsert(phtKey(gen.triggerPc, gen.triggerOffset), gen.pattern);
}

std::uint64_t
SmsPrefetcher::phtLookup(std::uint64_t key)
{
    const std::size_t num_sets = pht_.size() / params_.phtAssoc;
    const std::size_t set = key % num_sets;
    for (unsigned w = 0; w < params_.phtAssoc; ++w) {
        PhtEntry &e = pht_[set * params_.phtAssoc + w];
        if (e.valid && e.key == key) {
            e.lastUse = ++useTick_;
            return e.pattern;
        }
    }
    return 0;
}

void
SmsPrefetcher::phtInsert(std::uint64_t key, std::uint64_t pattern)
{
    const std::size_t num_sets = pht_.size() / params_.phtAssoc;
    const std::size_t set = key % num_sets;
    PhtEntry *victim = nullptr;
    for (unsigned w = 0; w < params_.phtAssoc; ++w) {
        PhtEntry &e = pht_[set * params_.phtAssoc + w];
        if (e.valid && e.key == key) {
            e.pattern = pattern;
            e.lastUse = ++useTick_;
            return;
        }
    }
    for (unsigned w = 0; w < params_.phtAssoc && !victim; ++w) {
        PhtEntry &e = pht_[set * params_.phtAssoc + w];
        if (!e.valid)
            victim = &e;
    }
    if (!victim) {
        victim = &pht_[set * params_.phtAssoc];
        for (unsigned w = 1; w < params_.phtAssoc; ++w) {
            PhtEntry &e = pht_[set * params_.phtAssoc + w];
            if (e.lastUse < victim->lastUse)
                victim = &e;
        }
    }
    victim->valid = true;
    victim->key = key;
    victim->pattern = pattern;
    victim->lastUse = ++useTick_;
}

void
SmsPrefetcher::observeAccess(const PrefetchContext &ctx, PrefetchSink &sink)
{
    if (ctx.l1Hit && !params_.trainOnHits)
        return;

    const Addr region = regionOf(ctx.addr);
    const unsigned offset = offsetOf(ctx.addr);
    const std::uint64_t bit = 1ull << offset;

    // Already accumulating this region?
    if (Generation *gen = agt_.find(region)) {
        gen->pattern |= bit;
        return;
    }

    // Second distinct access promotes the region out of the filter.
    if (const FilterEntry *fe = filter_.find(region)) {
        if (fe->triggerOffset == offset)
            return; // same line again: stays in the filter
        Generation gen;
        gen.triggerPc = fe->triggerPc;
        gen.triggerOffset = fe->triggerOffset;
        gen.pattern = (1ull << fe->triggerOffset) | bit;
        filter_.erase(region);

        // Capacity eviction ends the oldest generation.
        agt_.insert(region, gen,
                    [this](const Generation &victim) {
                        endGeneration(victim);
                    });
        return;
    }

    // New region: trigger access. Predict from the PHT, then start
    // tracking the new generation in the filter.
    if (const std::uint64_t pattern = phtLookup(phtKey(ctx.pc, offset))) {
        const Addr region_base = region * params_.regionBytes;
        for (unsigned l = 0; l < linesPerRegion_; ++l) {
            if (l == offset || !(pattern & (1ull << l)))
                continue;
            const LineAddr line = lineOf(region_base +
                                         static_cast<Addr>(l) *
                                         LineBytes);
            if (!sink.isCached(line))
                sink.issuePrefetch(line, PfSource::Sms);
        }
    }

    // A full filter discards its oldest single-access generation,
    // which is the filter's purpose.
    filter_.insert(region, FilterEntry{ctx.pc, offset});
}

std::uint64_t
SmsPrefetcher::storageBits() const
{
    // Table III: AGT + Filter + PHT.
    const std::uint64_t pattern_bits = params_.storagePatternBits;
    const std::uint64_t agt =
        static_cast<std::uint64_t>(params_.offsetBits + params_.pcBits +
                                   params_.tagBits) *
        params_.agtEntries;
    const std::uint64_t filter =
        static_cast<std::uint64_t>(params_.offsetBits + params_.pcBits +
                                   params_.tagBits + pattern_bits) *
        params_.filterEntries;
    const std::uint64_t pht =
        (pattern_bits + params_.pcBits + params_.offsetBits) *
        params_.phtEntries;
    return agt + filter + pht;
}

void
SmsPrefetcher::exportMetrics(MetricsRegistry &reg,
                             const std::string &prefix) const
{
    const std::string p = prefix + ".sms.";
    reg.addScalar(p + "agtOccupancy", agt_.size(),
                  "active-generation-table entries in use");
    reg.addScalar(p + "agtCapacity", params_.agtEntries,
                  "active-generation-table entry capacity");
    reg.addScalar(p + "filterOccupancy", filter_.size(),
                  "filter-table entries in use");
    reg.addScalar(p + "filterCapacity", params_.filterEntries,
                  "filter-table entry capacity");
    const std::size_t pht_valid = static_cast<std::size_t>(
        std::count_if(pht_.begin(), pht_.end(),
                      [](const PhtEntry &e) { return e.valid; }));
    reg.addScalar(p + "phtOccupancy", pht_valid,
                  "pattern-history-table entries in use");
    reg.addScalar(p + "phtCapacity", params_.phtEntries,
                  "pattern-history-table entry capacity");
}

ParamSchema
smsParamSchema()
{
    return ParamSchema()
        .field("region-bytes", &SmsParams::regionBytes,
               "spatial region size in bytes")
        .field("agt-entries", &SmsParams::agtEntries,
               "active generation (accumulation) table entries",
               MaxTableEntries)
        .field("filter-entries", &SmsParams::filterEntries,
               "filter table entries",
               MaxTableEntries)
        .field("pht-entries", &SmsParams::phtEntries,
               "pattern history table entries",
               MaxTableEntries)
        .field("pht-assoc", &SmsParams::phtAssoc,
               "pattern history table associativity")
        .field("train-on-hits", &SmsParams::trainOnHits,
               "observe L1 hits as well as misses")
        .field("pc-bits", &SmsParams::pcBits,
               "PC tag width (storage accounting)")
        .field("offset-bits", &SmsParams::offsetBits,
               "region-offset width (storage accounting)")
        .field("tag-bits", &SmsParams::tagBits,
               "region tag width (storage accounting)")
        .field("storage-pattern-bits",
               &SmsParams::storagePatternBits,
               "pattern width in Table III's budget");
}

} // namespace cbws
