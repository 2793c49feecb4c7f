#include "prefetch/addon.hh"

#include "base/logging.hh"

namespace cbws
{

namespace
{

/** Sink wrapper dropping issues while muted. */
class MutedSink : public PrefetchSink
{
  public:
    MutedSink(PrefetchSink &inner, bool muted,
              std::uint64_t &suppressed)
        : inner_(inner), muted_(muted), suppressed_(suppressed)
    {
    }

    void
    issuePrefetch(LineAddr line, PfSource src) override
    {
        if (muted_) {
            ++suppressed_;
            return;
        }
        inner_.issuePrefetch(line, src);
    }

    bool
    isCached(LineAddr line) const override
    {
        return inner_.isCached(line);
    }

  private:
    PrefetchSink &inner_;
    bool muted_;
    std::uint64_t &suppressed_;
};

} // anonymous namespace

CbwsAddOnPrefetcher::CbwsAddOnPrefetcher(
    std::unique_ptr<Prefetcher> base, const CbwsParams &cbws_params)
    : base_(std::move(base)), cbws_(cbws_params)
{
    panic_if(!base_, "CBWS add-on needs a base prefetcher");
}

void
CbwsAddOnPrefetcher::observeAccess(const PrefetchContext &ctx,
                                   PrefetchSink &sink)
{
    const bool muted = cbws_.inBlock() && cbws_.lastBlockPredicted();
    MutedSink gate(sink, muted, suppressed_);
    base_->observeAccess(ctx, gate);
}

void
CbwsAddOnPrefetcher::observeCommit(const PrefetchContext &ctx,
                                   PrefetchSink &sink)
{
    cbws_.observeCommit(ctx, sink);
    // The base also receives commit-time notifications in case it is
    // itself commit-trained; its issues stay gated.
    const bool muted = cbws_.inBlock() && cbws_.lastBlockPredicted();
    MutedSink gate(sink, muted, suppressed_);
    base_->observeCommit(ctx, gate);
}

void
CbwsAddOnPrefetcher::blockBegin(BlockId id, PrefetchSink &sink)
{
    cbws_.blockBegin(id, sink);
    base_->blockBegin(id, sink);
}

void
CbwsAddOnPrefetcher::blockEnd(BlockId id, PrefetchSink &sink)
{
    cbws_.blockEnd(id, sink);
    base_->blockEnd(id, sink);
}

std::uint64_t
CbwsAddOnPrefetcher::storageBits() const
{
    return cbws_.storageBits() + base_->storageBits();
}

std::string
CbwsAddOnPrefetcher::name() const
{
    return "CBWS+" + base_->name();
}

} // namespace cbws
