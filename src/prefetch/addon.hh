/**
 * @file
 * The CBWS add-on: the paper designs CBWS "as an add-on component"
 * and evaluates it integrated with SMS. This wrapper realises that
 * form over *any* base prefetcher — CBWS handles annotated tight
 * loops, and the base acts as the fallback under the integrated
 * policy ("the CBWS prefetcher issues a prefetch only if the current
 * access pattern hits in the history table. Otherwise, the SMS
 * prefetcher issues the prefetch").
 *
 * The base keeps training on every access (so its patterns stay
 * warm), but its *issues* are suppressed while execution is inside a
 * block whose CBWS history is currently predicting. The registry
 * builds "CBWS+SMS" (Section VI) and "CBWS+AMPM" from it.
 */

#ifndef CBWS_PREFETCH_ADDON_HH
#define CBWS_PREFETCH_ADDON_HH

#include <memory>

#include "base/metrics.hh"
#include "core/cbws_prefetcher.hh"
#include "prefetch/prefetcher.hh"

namespace cbws
{

/**
 * CBWS bolted onto an arbitrary base prefetcher.
 */
class CbwsAddOnPrefetcher : public Prefetcher
{
  public:
    CbwsAddOnPrefetcher(std::unique_ptr<Prefetcher> base,
                        const CbwsParams &cbws_params = CbwsParams());

    void observeAccess(const PrefetchContext &ctx,
                       PrefetchSink &sink) override;
    void observeCommit(const PrefetchContext &ctx,
                       PrefetchSink &sink) override;
    void blockBegin(BlockId id, PrefetchSink &sink) override;
    void blockEnd(BlockId id, PrefetchSink &sink) override;

    /** The base's stages, plus CBWS's commit and block training. */
    PfStageMask
    stages() const override
    {
        return base_->stages() | cbws_.stages();
    }

    std::uint64_t storageBits() const override;
    std::string name() const override;

    void
    exportMetrics(MetricsRegistry &reg,
                  const std::string &prefix) const override
    {
        cbws_.exportMetrics(reg, prefix);
        base_->exportMetrics(reg, prefix);
        reg.addScalar(prefix + ".suppressedBaseIssues", suppressed_,
                      "base-prefetcher issues muted by a confident "
                      "CBWS");
    }

    CbwsPrefetcher &cbws() { return cbws_; }
    Prefetcher &base() { return *base_; }

    /** Base-prefetcher issues suppressed by a confident CBWS. */
    std::uint64_t suppressedBaseIssues() const { return suppressed_; }

  private:
    std::unique_ptr<Prefetcher> base_;
    CbwsPrefetcher cbws_;
    std::uint64_t suppressed_ = 0;
};

} // namespace cbws

#endif // CBWS_PREFETCH_ADDON_HH
