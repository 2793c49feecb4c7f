#include "prefetch/pythia.hh"

#include <algorithm>

#include "base/logging.hh"
#include "base/metrics.hh"
#include "prefetch/registry.hh"

namespace cbws
{

namespace
{

/** Lines per 4 KB page (the action space is in-page). */
constexpr unsigned PageLines = 4096 / LineBytes;

/** 64-bit mix (splitmix64 finalizer) for feature hashing. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

PythiaPrefetcher::PythiaPrefetcher(const PythiaParams &params)
    : params_(params),
      q_(params.qEntries),
      lcgState_(params.seed)
{
    fatal_if(params_.qEntries == 0,
             "Pythia q-entries must be at least 1");
    fatal_if(params_.eqEntries == 0,
             "Pythia eq-entries must be at least 1");
    for (auto &row : q_)
        row.fill(0.0);
}

std::uint32_t
PythiaPrefetcher::lcg()
{
    // Numerical Recipes LCG; deterministic per instance.
    lcgState_ = lcgState_ * 6364136223846793005ull +
                1442695040888963407ull;
    return static_cast<std::uint32_t>(lcgState_ >> 33);
}

std::uint32_t
PythiaPrefetcher::stateOf(const PrefetchContext &ctx) const
{
    std::uint64_t h = 0x5368;
    if (params_.usePc)
        h = mix(h ^ ctx.pc);
    if (params_.useDeltaHistory)
        h = mix(h ^ deltaHistoryReg_);
    if (params_.usePageOffset)
        h = mix(h ^ (ctx.line % PageLines));
    return static_cast<std::uint32_t>(h % q_.size());
}

std::uint8_t
PythiaPrefetcher::selectAction(std::uint32_t state)
{
    if (params_.epsilonPct > 0 && lcg() % 100 < params_.epsilonPct) {
        ++explorations_;
        return static_cast<std::uint8_t>(lcg() % Actions.size());
    }
    const auto &row = q_[state];
    std::uint8_t best = 0;
    for (std::uint8_t a = 1; a < Actions.size(); ++a)
        if (row[a] > row[best]) // ties break to the lowest index
            best = a;
    return best;
}

void
PythiaPrefetcher::reward(const Pending &pending, int value,
                         std::uint32_t next_state)
{
    // Q-learning update: Q(s,a) += alpha (r + gamma max_a' Q(s',a')
    // - Q(s,a)), all rates in percent to keep the knobs integral.
    const auto &next_row = q_[next_state];
    const double best_next =
        *std::max_element(next_row.begin(), next_row.end());
    double &cell = q_[pending.state][pending.action];
    const double alpha = params_.alphaPct / 100.0;
    const double gamma = params_.gammaPct / 100.0;
    cell += alpha * (value + gamma * best_next - cell);
    ++qUpdates_;
}

void
PythiaPrefetcher::observeAccess(const PrefetchContext &ctx,
                                PrefetchSink &sink)
{
    if (ctx.l1Hit && !params_.trainOnHits)
        return;
    const std::uint32_t state = stateOf(ctx);

    // Settle queued prefetches this demand access proves accurate.
    for (auto it = evalQueue_.begin(); it != evalQueue_.end();) {
        if (it->line == ctx.line) {
            reward(*it, params_.rewardAccurate, state);
            ++accurate_;
            it = evalQueue_.erase(it);
        } else {
            ++it;
        }
    }

    const std::uint8_t action = selectAction(state);
    const int delta = Actions[action];
    bool issued_one = false;
    if (delta != 0) {
        const LineAddr target = static_cast<LineAddr>(
            static_cast<std::int64_t>(ctx.line) + delta);
        // Stay within the page, like the hardware scheme: an
        // out-of-page pick scores as "no prefetch".
        if (target / PageLines == ctx.line / PageLines) {
            if (!sink.isCached(target)) {
                sink.issuePrefetch(target, PfSource::Rl);
                ++issued_;
            }
            // Queue even already-cached picks: the demand stream
            // still tells us whether the *choice* was useful.
            while (evalQueue_.size() >= params_.eqEntries) {
                reward(evalQueue_.front(), params_.rewardInaccurate,
                       state);
                ++agedOut_;
                evalQueue_.pop_front();
            }
            evalQueue_.push_back({target, state, action});
            issued_one = true;
        }
    }
    if (!issued_one)
        reward({ctx.line, state, action}, params_.rewardNoPrefetch,
               state);

    // Fold this access's delta into the history feature.
    if (primed_) {
        const std::int64_t d =
            static_cast<std::int64_t>(ctx.line) -
            static_cast<std::int64_t>(lastLine_);
        const unsigned bits = 7 * params_.deltaHistory;
        deltaHistoryReg_ =
            ((deltaHistoryReg_ << 7) |
             (static_cast<std::uint64_t>(d) & 0x7f)) &
            ((bits >= 64 ? ~0ull : (1ull << bits) - 1));
    }
    lastLine_ = ctx.line;
    primed_ = true;
}

std::uint64_t
PythiaPrefetcher::storageBits() const
{
    // Q-table (quantised weights in hardware), evaluation queue
    // (line tag + state + action), delta-history register.
    const std::uint64_t qBits =
        static_cast<std::uint64_t>(q_.size()) * Actions.size() *
        params_.qBits;
    const std::uint64_t eqBits =
        static_cast<std::uint64_t>(params_.eqEntries) *
        (36 + floorLog2(q_.size()) + 1 + 4);
    return qBits + eqBits + 7ull * params_.deltaHistory;
}

void
PythiaPrefetcher::exportMetrics(MetricsRegistry &reg,
                                const std::string &prefix) const
{
    const std::string p = prefix + ".pythia.";
    reg.addScalar(p + "qUpdates", qUpdates_,
                  "Q-learning updates applied");
    reg.addScalar(p + "explorations", explorations_,
                  "epsilon-greedy random actions taken");
    reg.addScalar(p + "issued", issued_,
                  "prefetches handed to the sink");
    reg.addScalar(p + "accurate", accurate_,
                  "queued prefetches proven accurate by a demand");
    reg.addScalar(p + "agedOut", agedOut_,
                  "queued prefetches aged out untouched");
    reg.addScalar(p + "evalQueueDepth", evalQueue_.size(),
                  "evaluation-queue entries at end of run");
}

ParamSchema
pythiaParamSchema()
{
    return ParamSchema()
        .field("q-entries", &PythiaParams::qEntries,
               "hashed Q-table rows",
               MaxTableEntries)
        .field("eq-entries", &PythiaParams::eqEntries,
               "evaluation-queue depth",
               MaxTableEntries)
        .field("delta-history", &PythiaParams::deltaHistory,
               "deltas folded into the state feature")
        .field("use-pc", &PythiaParams::usePc,
               "feature: program counter")
        .field("use-delta-history", &PythiaParams::useDeltaHistory,
               "feature: recent delta history")
        .field("use-page-offset", &PythiaParams::usePageOffset,
               "feature: line offset within the page")
        .field("alpha-pct", &PythiaParams::alphaPct,
               "learning rate x100")
        .field("gamma-pct", &PythiaParams::gammaPct,
               "discount factor x100")
        .field("epsilon-pct", &PythiaParams::epsilonPct,
               "exploration rate x100")
        .field("reward-accurate", &PythiaParams::rewardAccurate,
               "reward: queued prefetch hit by a demand")
        .field("reward-inaccurate", &PythiaParams::rewardInaccurate,
               "reward: queued prefetch aged out untouched")
        .field("reward-no-prefetch", &PythiaParams::rewardNoPrefetch,
               "reward: no (usable) prefetch issued")
        .field("train-on-hits", &PythiaParams::trainOnHits,
               "observe L1 hits as well as misses")
        .field("seed", &PythiaParams::seed,
               "epsilon-greedy LCG seed")
        .field("q-bits", &PythiaParams::qBits,
               "per-weight width (storage accounting)");
}

} // namespace cbws
