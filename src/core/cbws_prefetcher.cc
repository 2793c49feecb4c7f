#include "core/cbws_prefetcher.hh"

#include <algorithm>

#include "base/logging.hh"
#include "base/metrics.hh"
#include "prefetch/registry.hh"

namespace cbws
{

CbwsPrefetcher::CbwsPrefetcher(const CbwsParams &params)
    : params_(params),
      prev_(params.numSteps),
      currDiff_(params.numSteps),
      table_(params.tableEntries, params.tableSeed)
{
    fatal_if(params_.numSteps == 0, "CBWS needs at least one step");
    fatal_if(params_.tableEntries == 0,
             "CBWS table-entries must be at least 1");
    // tag() xor-folds the history in tag-bits chunks (0 never ends
    // the fold) into the table's 16-bit tags (the paper's width).
    fatal_if(params_.tagBits == 0 || params_.tagBits > 16,
             "CBWS tag-bits must be in 1..16, not %u", params_.tagBits);
    history_.reserve(params_.numSteps);
    for (unsigned k = 0; k < params_.numSteps; ++k) {
        history_.emplace_back(params_.historyDepth, params_.hashBits);
    }
}

void
CbwsPrefetcher::resetBlockContext()
{
    currCbws_.clear();
    currTruncated_ = false;
    for (auto &d : currDiff_)
        d.clear();
}

void
CbwsPrefetcher::blockBegin(BlockId id, PrefetchSink &sink)
{
    (void)sink;
    if (!haveBlockId_ || id != currentBlockId_) {
        // The hardware holds a single block context: switching to a
        // different static block discards the accumulated history.
        for (auto &p : prev_)
            p.clear();
        for (auto &h : history_)
            h.clear();
        currentBlockId_ = id;
        haveBlockId_ = true;
        lastBlockPredicted_ = false;
    }
    resetBlockContext();
    inBlock_ = true;
}

void
CbwsPrefetcher::observeCommit(const PrefetchContext &ctx, PrefetchSink &sink)
{
    (void)sink;
    if (!inBlock_) {
        ++stats_.accessesOutsideBlock;
        return;
    }
    if (ctx.l1Hit && !params_.trainOnHits)
        return;

    const std::uint32_t line32 = static_cast<std::uint32_t>(ctx.line);
    const auto outcome = currCbws_.push(line32,
                                        params_.maxVectorMembers);
    if (outcome == CbwsVector::Push::Duplicate)
        return;
    if (outcome == CbwsVector::Push::Overflow) {
        currTruncated_ = true;
        return;
    }

    ++stats_.accessesTracked;
    // Incrementally extend each k-step differential: the new member's
    // stride against the correlated entry of the CBWS k blocks ago
    // (Fig. 10 — this is why the predictor needs only 4 adders).
    const std::size_t idx = currCbws_.size() - 1;
    for (unsigned k = 0; k < params_.numSteps; ++k) {
        if (idx < prev_[k].size()) {
            currDiff_[k].append(static_cast<std::int16_t>(
                line32 - prev_[k][idx]));
        }
    }
}

void
CbwsPrefetcher::blockEnd(BlockId id, PrefetchSink &sink)
{
    if (!inBlock_ || !haveBlockId_ || id != currentBlockId_) {
        // Unpaired BLOCK_END (e.g., context switched mid-block):
        // drop the partial trace.
        inBlock_ = false;
        resetBlockContext();
        return;
    }
    inBlock_ = false;
    ++stats_.blocksCompleted;
    if (currTruncated_)
        ++stats_.blocksTruncated;

    // Fig. 5 instrumentation: identity of the 1-step differential.
    if (probe_ && !prev_[0].empty() && !currDiff_[0].empty())
        probe_->sample(currDiff_[0].identityHash());

    // 1. Update the prediction database: under the tag of each step's
    //    *pre-update* history, record the differential that followed
    //    it; then shift the history registers (Algorithm 1).
    for (unsigned k = 0; k < params_.numSteps; ++k) {
        if (prev_[k].empty() || currDiff_[k].empty())
            continue;
        if (history_[k].size() > 0) {
            table_.insert(history_[k].tag(params_.tagBits),
                          currDiff_[k]);
        }
        history_[k].push(currDiff_[k].hashBits(params_.hashBits));
    }

    // 2. Shift the last-blocks CBWS buffer. Rotating the slots moves
    //    each vector's storage instead of deep-copying it; the oldest
    //    slot lands at prev_[0] and is overwritten (reusing its
    //    capacity) with the just-completed CBWS.
    std::rotate(prev_.begin(), prev_.end() - 1, prev_.end());
    prev_[0] = currCbws_;

    // 3. Predict: for each step k, a hit on the (new) history tag
    //    yields the expected k-step differential; adding it to the
    //    just-completed CBWS predicts the working set of block n+k.
    lastBlockPredicted_ = false;
    for (unsigned k = 0; k < params_.numSteps; ++k) {
        if (history_[k].size() == 0 || prev_[0].empty())
            continue;
        const CbwsDifferential *pred =
            table_.lookup(history_[k].tag(params_.tagBits));
        if (!pred) {
            ++stats_.tableMisses;
            continue;
        }
        ++stats_.tableHits;
        lastBlockPredicted_ = true;
        const std::size_t n = pred->size() < prev_[0].size()
                                  ? pred->size()
                                  : prev_[0].size();
        for (std::size_t j = 0; j < n; ++j) {
            const std::uint32_t target32 =
                prev_[0][j] +
                static_cast<std::uint32_t>(
                    static_cast<std::int32_t>((*pred)[j]));
            const LineAddr target = static_cast<LineAddr>(target32);
            if (!sink.isCached(target)) {
                sink.issuePrefetch(target, PfSource::Cbws);
                ++stats_.linesPredicted;
            }
        }
    }

    resetBlockContext();
}

std::uint64_t
CbwsPrefetcher::storageBits() const
{
    // Fig. 8 accounting. The predicted-differentials buffer is
    // transient staging (loaded and consumed within one BLOCK_END) and
    // is not counted, matching the paper's "<1KB" budget.
    const std::uint64_t curr =
        static_cast<std::uint64_t>(params_.maxVectorMembers) *
        params_.memberBits;
    const std::uint64_t last = static_cast<std::uint64_t>(
        params_.numSteps) * params_.maxVectorMembers *
        params_.memberBits;
    const std::uint64_t diffs = static_cast<std::uint64_t>(
        params_.numSteps) * params_.maxVectorMembers *
        params_.strideBits;
    const std::uint64_t hist = static_cast<std::uint64_t>(
        params_.numSteps) * params_.historyDepth * params_.hashBits;
    const std::uint64_t table = static_cast<std::uint64_t>(
        params_.tableEntries) *
        (params_.tagBits + static_cast<std::uint64_t>(
            params_.maxVectorMembers) * params_.strideBits);
    return curr + last + diffs + hist + table;
}

void
CbwsPrefetcher::exportMetrics(MetricsRegistry &reg,
                              const std::string &prefix) const
{
    const std::string p = prefix + ".cbws.";
    reg.addScalar(p + "blocksCompleted", stats_.blocksCompleted,
                  "BLOCK_END markers processed");
    reg.addScalar(p + "blocksTruncated", stats_.blocksTruncated,
                  "blocks whose working set exceeded capacity");
    reg.addScalar(p + "tableHits", stats_.tableHits,
                  "prediction lookups that hit the table");
    reg.addScalar(p + "tableMisses", stats_.tableMisses,
                  "prediction lookups that missed");
    reg.addFormula(
        p + "tableHitRate",
        stats_.tableHits + stats_.tableMisses
            ? static_cast<double>(stats_.tableHits) /
                  static_cast<double>(stats_.tableHits +
                                      stats_.tableMisses)
            : 0.0,
        "tableHits / (tableHits + tableMisses)",
        "fraction of lookups served by the differential table");
    reg.addScalar(p + "linesPredicted", stats_.linesPredicted,
                  "lines emitted as predictions");
    reg.addScalar(p + "accessesTracked", stats_.accessesTracked,
                  "in-block accesses recorded into working sets");
    reg.addScalar(p + "accessesOutsideBlock",
                  stats_.accessesOutsideBlock,
                  "committed accesses seen outside any block");
    reg.addScalar(p + "tableOccupancy",
                  static_cast<std::uint64_t>(table_.occupancy()),
                  "differential-table entries in use");
    reg.addScalar(p + "tableCapacity",
                  static_cast<std::uint64_t>(table_.capacity()),
                  "differential-table entry capacity");
}

ParamSchema
cbwsParamSchema()
{
    return ParamSchema()
        .field("max-vector-members", &CbwsParams::maxVectorMembers,
               "distinct lines traced per code block (FIFO depth)",
               4096)
        .field("num-steps", &CbwsParams::numSteps,
               "stored working sets / deepest prediction step")
        .field("history-depth", &CbwsParams::historyDepth,
               "differential hashes per history shift register")
        .field("hash-bits", &CbwsParams::hashBits,
               "bits per hashed differential")
        .field("table-entries", &CbwsParams::tableEntries,
               "differential history table entries",
               MaxTableEntries)
        .field("tag-bits", &CbwsParams::tagBits,
               "xor-folded history tag width")
        .field("train-on-hits", &CbwsParams::trainOnHits,
               "track all L1 accesses inside blocks")
        .field("member-bits", &CbwsParams::memberBits,
               "line-address bits kept per member (storage)")
        .field("stride-bits", &CbwsParams::strideBits,
               "stride bits per differential element (storage)")
        .field("table-seed", &CbwsParams::tableSeed,
               "random-eviction seed for the differential table");
}

} // namespace cbws
