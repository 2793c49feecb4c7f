#include "base/faultinject.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "base/logging.hh"

namespace cbws
{

namespace
{

/** splitmix64: decorrelates (seed, site, hit) into a uniform word. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Uniform [0, 1) draw for hit @p n at @p site under @p seed. */
double
draw(std::uint64_t seed, unsigned site, std::uint64_t n)
{
    const std::uint64_t word =
        mix(seed ^ mix(static_cast<std::uint64_t>(site) << 32 ^ n));
    return static_cast<double>(word >> 11) /
           static_cast<double>(1ull << 53);
}

} // anonymous namespace

const char *
toString(FaultSite site)
{
    switch (site) {
      case FaultSite::TraceCacheLoad:
        return "trace-cache-load";
      case FaultSite::TraceCacheStore:
        return "trace-cache-store";
      case FaultSite::TraceCacheCorrupt:
        return "trace-cache-corrupt";
      case FaultSite::CheckpointAppend:
        return "checkpoint-append";
      default:
        return "?";
    }
}

FaultInjector &
FaultInjector::instance()
{
    static FaultInjector injector;
    return injector;
}

void
FaultInjector::reset()
{
    for (auto &site : sites_) {
        site.armed.store(false);
        site.rate = 0.0;
        site.seed = 1;
        site.exactHits.clear();
        site.hits.store(0);
        site.fired.store(0);
    }
    anyArmed_.store(false);
}

void
FaultInjector::arm(FaultSite site, double rate, std::uint64_t seed)
{
    auto &s = sites_[static_cast<unsigned>(site)];
    s.rate = rate;
    s.seed = seed;
    s.exactHits.clear();
    s.armed.store(rate > 0.0);
    anyArmed_.store(true);
}

void
FaultInjector::armAt(FaultSite site, std::vector<std::uint64_t> hits)
{
    auto &s = sites_[static_cast<unsigned>(site)];
    s.rate = 0.0;
    s.exactHits = std::set<std::uint64_t>(hits.begin(), hits.end());
    s.armed.store(!s.exactHits.empty());
    anyArmed_.store(true);
}

Result<void>
FaultInjector::configureFromEnv()
{
    reset();
    const char *env = std::getenv("CBWS_FAULT");
    if (!env || !*env)
        return Result<void>();

    std::uint64_t seed = 1;
    if (const char *seed_env = std::getenv("CBWS_FAULT_SEED"))
        seed = std::strtoull(seed_env, nullptr, 10);

    std::string spec(env);
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string item = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (item.empty())
            continue;

        // "site:rate" or "site@hit".
        const std::size_t colon = item.find(':');
        const std::size_t at = item.find('@');
        const std::size_t sep = std::min(colon, at);
        const std::string name = item.substr(0, sep);

        FaultSite site = FaultSite::NumSites;
        for (unsigned i = 0; i < NumFaultSites; ++i) {
            if (name == toString(static_cast<FaultSite>(i))) {
                site = static_cast<FaultSite>(i);
                break;
            }
        }
        if (site == FaultSite::NumSites) {
            reset();
            return Error(Errc::InvalidArgument,
                         "CBWS_FAULT: unknown fault site '" + name +
                             "'");
        }

        if (at != std::string::npos) {
            char *end = nullptr;
            const std::uint64_t hit =
                std::strtoull(item.c_str() + at + 1, &end, 10);
            if (hit == 0 || (end && *end)) {
                reset();
                return Error(Errc::InvalidArgument,
                             "CBWS_FAULT: bad hit index in '" + item +
                                 "'");
            }
            armAt(site, {hit});
        } else {
            double rate = 1.0;
            if (colon != std::string::npos) {
                char *end = nullptr;
                rate = std::strtod(item.c_str() + colon + 1, &end);
                if (end && *end) {
                    reset();
                    return Error(Errc::InvalidArgument,
                                 "CBWS_FAULT: bad rate in '" + item +
                                     "'");
                }
            }
            arm(site, rate, seed);
        }
    }
    return Result<void>();
}

bool
FaultInjector::shouldFire(FaultSite site)
{
    auto &s = sites_[static_cast<unsigned>(site)];
    if (!s.armed.load(std::memory_order_relaxed))
        return false;
    const std::uint64_t n =
        s.hits.fetch_add(1, std::memory_order_relaxed) + 1;
    bool fire;
    if (!s.exactHits.empty()) {
        fire = s.exactHits.count(n) != 0;
    } else {
        fire = draw(s.seed, static_cast<unsigned>(site), n) < s.rate;
    }
    if (fire) {
        s.fired.fetch_add(1, std::memory_order_relaxed);
        warn("fault injection: firing %s (hit %llu)", toString(site),
             static_cast<unsigned long long>(n));
    }
    return fire;
}

std::uint64_t
FaultInjector::hits(FaultSite site) const
{
    return sites_[static_cast<unsigned>(site)].hits.load();
}

std::uint64_t
FaultInjector::fired(FaultSite site) const
{
    return sites_[static_cast<unsigned>(site)].fired.load();
}

namespace faultinject
{

Result<void>
corruptFile(const std::string &path, CorruptMode mode,
            std::uint64_t seed)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return Error(Errc::NotFound, "cannot open '" + path + "'");
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fclose(f);
    if (size <= 0)
        return Error(Errc::IoError, "cannot size '" + path + "'");

    if (mode == CorruptMode::Truncate) {
        // Rewrite the first half only: a crash mid-write.
        std::FILE *in = std::fopen(path.c_str(), "rb");
        if (!in)
            return Error(Errc::IoError, "cannot reopen '" + path + "'");
        std::vector<char> head(static_cast<std::size_t>(size) / 2);
        const std::size_t got =
            head.empty() ? 0
                         : std::fread(head.data(), 1, head.size(), in);
        std::fclose(in);
        std::FILE *out = std::fopen(path.c_str(), "wb");
        if (!out)
            return Error(Errc::IoError,
                         "cannot rewrite '" + path + "'");
        if (got)
            std::fwrite(head.data(), 1, got, out);
        std::fclose(out);
        return Result<void>();
    }

    // FlipBytes: xor a few deterministically chosen bytes in place.
    std::FILE *rw = std::fopen(path.c_str(), "rb+");
    if (!rw)
        return Error(Errc::IoError, "cannot open '" + path + "' r/w");
    for (unsigned i = 0; i < 4; ++i) {
        const long offset = static_cast<long>(
            mix(seed + i) % static_cast<std::uint64_t>(size));
        std::fseek(rw, offset, SEEK_SET);
        const int c = std::fgetc(rw);
        if (c == EOF)
            break;
        std::fseek(rw, offset, SEEK_SET);
        std::fputc(c ^ 0x5a, rw);
    }
    std::fclose(rw);
    return Result<void>();
}

} // namespace faultinject

} // namespace cbws
