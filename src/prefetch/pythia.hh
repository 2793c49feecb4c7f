/**
 * @file
 * Pythia-style online reinforcement-learning prefetcher (after
 * "Pythia: A Customizable Hardware Prefetching Framework Using Online
 * Reinforcement Learning").
 *
 * Every trained access is folded into a *state* through a pluggable
 * feature vector — program counter, recent delta history, and page
 * offset, each individually switchable — and an agent picks one of a
 * discrete set of in-page prefetch deltas (including "don't
 * prefetch") by tabular Q-learning. Issued prefetches sit in an
 * evaluation queue until a demand access proves them accurate
 * (positive reward) or they age out untouched (negative reward), so
 * the reward seam directly shapes coverage against pollution; the
 * reward levels themselves are parameters.
 *
 * Everything is tabular and integer/LCG-driven, so runs are exactly
 * reproducible: no wall-clock, no global randomness.
 */

#ifndef CBWS_PREFETCH_PYTHIA_HH
#define CBWS_PREFETCH_PYTHIA_HH

#include <array>
#include <cstdint>
#include <deque>
#include <vector>

#include "prefetch/paramschema.hh"
#include "prefetch/prefetcher.hh"

namespace cbws
{

/** Pythia prefetcher configuration. */
struct PythiaParams
{
    unsigned qEntries = 4096; ///< hashed Q-table rows
    unsigned eqEntries = 64;  ///< evaluation-queue depth
    unsigned deltaHistory = 4; ///< deltas folded into the state
    bool usePc = true;         ///< feature: program counter
    bool useDeltaHistory = true; ///< feature: recent deltas
    bool usePageOffset = true; ///< feature: line offset in page
    unsigned alphaPct = 20;    ///< learning rate x100
    unsigned gammaPct = 55;    ///< discount factor x100
    unsigned epsilonPct = 2;   ///< exploration rate x100
    int rewardAccurate = 20;   ///< demand hit on a queued prefetch
    int rewardInaccurate = -8; ///< aged out of the queue untouched
    int rewardNoPrefetch = -2; ///< chose not to (or could not) issue
    bool trainOnHits = true;   ///< the agent sees the full stream
    std::uint64_t seed = 0x7954; ///< epsilon-greedy LCG seed
    unsigned qBits = 8;        ///< per-weight width (storage acct.)
};

/** `--pf-opt` keys for PythiaParams. */
ParamSchema pythiaParamSchema();

/**
 * Tabular Q-learning agent over a discrete in-page prefetch-delta
 * action space.
 */
class PythiaPrefetcher : public Prefetcher
{
  public:
    /** In-page line-delta actions; 0 means "don't prefetch". */
    static constexpr std::array<int, 12> Actions = {
        1, 2, 3, 4, 6, 8, 12, 16, -1, -2, -4, 0};

    explicit PythiaPrefetcher(
        const PythiaParams &params = PythiaParams());

    void observeAccess(const PrefetchContext &ctx,
                       PrefetchSink &sink) override;

    PfStageMask stages() const override { return TrainsAtAccess; }
    std::uint64_t storageBits() const override;
    std::string name() const override { return "Pythia"; }

    void exportMetrics(MetricsRegistry &reg,
                       const std::string &prefix) const override;

  private:
    /** One issued prefetch awaiting its accuracy verdict. */
    struct Pending
    {
        LineAddr line = 0;
        std::uint32_t state = 0;
        std::uint8_t action = 0;
    };

    std::uint32_t stateOf(const PrefetchContext &ctx) const;
    std::uint8_t selectAction(std::uint32_t state);
    void reward(const Pending &pending, int value,
                std::uint32_t next_state);
    std::uint32_t lcg();

    PythiaParams params_;
    std::vector<std::array<double, Actions.size()>> q_;
    std::deque<Pending> evalQueue_;
    std::uint64_t deltaHistoryReg_ = 0; ///< 7 bits per recent delta
    LineAddr lastLine_ = 0;
    bool primed_ = false;
    std::uint64_t lcgState_;

    std::uint64_t qUpdates_ = 0;
    std::uint64_t explorations_ = 0;
    std::uint64_t issued_ = 0;
    std::uint64_t accurate_ = 0;
    std::uint64_t agedOut_ = 0;
};

} // namespace cbws

#endif // CBWS_PREFETCH_PYTHIA_HH
