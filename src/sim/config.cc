#include "sim/config.hh"

#include "base/logging.hh"
#include "prefetch/registry.hh"

namespace cbws
{

std::vector<std::string>
allSchemeNames()
{
    return {"No-Prefetch", "Stride", "GHB-PC/DC", "GHB-G/DC",
            "SMS",         "CBWS",   "CBWS+SMS"};
}

std::vector<std::string>
extendedSchemeNames()
{
    std::vector<std::string> names = allSchemeNames();
    names.push_back("AMPM");
    names.push_back("CBWS+AMPM");
    return names;
}

std::vector<std::string>
zooSchemeNames()
{
    return prefetcherRegistry().names();
}

std::unique_ptr<Prefetcher>
makePrefetcher(const SystemConfig &config)
{
    const std::string &name = config.scheme;
    ParamSet params;
    if (!config.pfOpts.empty()) {
        // Keys this scheme does not accept are skipped: multi-scheme
        // drivers validated every key against the whole selection up
        // front, and a single option may target only some columns
        // ("degree=4" tunes Stride and GHB but not No-Prefetch).
        Result<void> applied = prefetcherRegistry().applyOptions(
            name, params, config.pfOpts, /*ignore_unknown=*/true);
        if (!applied.ok())
            panic("makePrefetcher: %s",
                  applied.error().str().c_str());
    }
    auto result = prefetcherRegistry().create(name, params);
    if (!result.ok())
        panic("makePrefetcher: %s", result.error().str().c_str());
    return std::move(result).value();
}

} // namespace cbws
