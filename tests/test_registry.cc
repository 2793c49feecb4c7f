/**
 * @file
 * String-keyed prefetcher registry: every scheme the paper evaluates
 * (plus the extensions) must be listed under its figure-legend name,
 * resolve case-insensitively, and build the same prefetcher
 * makePrefetcher() builds from a SystemConfig's scheme and pfOpts —
 * identical name() and Table III storageBits().
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <strings.h>
#include <vector>

#include "prefetch/registry.hh"
#include "sim/config.hh"

namespace cbws
{
namespace
{

TEST(PrefetcherRegistry, EveryKindRoundTripsThroughTheRegistry)
{
    const std::vector<std::string> opts = {"table-entries=1024"};
    for (const std::string &name : extendedSchemeNames()) {
        ASSERT_TRUE(prefetcherRegistry().contains(name)) << name;

        SystemConfig config;
        config.scheme = name;
        config.pfOpts = opts;
        const auto via_config = makePrefetcher(config);
        ASSERT_NE(via_config, nullptr) << name;

        // Schemes without an unscoped table-entries key skip it, as
        // makePrefetcher() does.
        ParamSet params;
        ASSERT_TRUE(prefetcherRegistry()
                        .applyOptions(name, params, opts,
                                      /*ignore_unknown=*/true)
                        .ok())
            << name;
        Result<std::unique_ptr<Prefetcher>> via_registry =
            prefetcherRegistry().create(name, params);
        ASSERT_TRUE(via_registry.ok())
            << name << ": " << via_registry.error().str();
        const auto &direct = via_registry.value();
        EXPECT_EQ(direct->name(), via_config->name()) << name;
        EXPECT_EQ(direct->storageBits(), via_config->storageBits())
            << name;
    }
}

TEST(PrefetcherRegistry, AllNineSchemesAreRegistered)
{
    const char *expected[] = {
        "No-Prefetch", "Stride",   "GHB-PC/DC",
        "GHB-G/DC",    "SMS",      "CBWS",
        "CBWS+SMS",    "AMPM",     "CBWS+AMPM",
    };
    const auto names = prefetcherRegistry().names();
    EXPECT_GE(names.size(), 9u);
    for (const char *name : expected) {
        EXPECT_TRUE(prefetcherRegistry().contains(name)) << name;
        EXPECT_FALSE(prefetcherRegistry().describe(name).empty())
            << name << " needs a --scheme help description";
    }
}

TEST(PrefetcherRegistry, LookupIsCaseInsensitive)
{
    for (const char *spelling :
         {"cbws+sms", "CBWS+SMS", "Cbws+Sms", "ghb-pc/dc",
          "no-prefetch", "stride", "STRIDE"}) {
        EXPECT_TRUE(prefetcherRegistry().contains(spelling))
            << spelling;
        Result<std::unique_ptr<Prefetcher>> r =
            prefetcherRegistry().create(spelling);
        EXPECT_TRUE(r.ok()) << spelling;
    }

    // The instantiated scheme is the same one regardless of case.
    auto lower = prefetcherRegistry().create("cbws+sms");
    auto upper = prefetcherRegistry().create("CBWS+SMS");
    ASSERT_TRUE(lower.ok());
    ASSERT_TRUE(upper.ok());
    EXPECT_EQ(lower.value()->name(), upper.value()->name());
}

TEST(PrefetcherRegistry, UnknownNameListsTheRegisteredSchemes)
{
    Result<std::unique_ptr<Prefetcher>> r =
        prefetcherRegistry().create("markov");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), Errc::NotFound);
    // The error is the user's discovery surface: it must name what
    // was asked for and what exists.
    EXPECT_NE(r.error().message.find("markov"), std::string::npos);
    EXPECT_NE(r.error().message.find("CBWS+SMS"), std::string::npos);
    EXPECT_NE(r.error().message.find("Stride"), std::string::npos);
}

TEST(PrefetcherRegistry, ParamsReachTheFactory)
{
    // A non-default table size must change the built prefetcher's
    // hardware budget exactly as it does through makePrefetcher().
    const std::vector<std::string> opts = {
        "table-entries=1024"}; // default is smaller
    SystemConfig config;
    config.scheme = "Stride";
    config.pfOpts = opts;

    const auto via_config = makePrefetcher(config);
    ParamSet params;
    ASSERT_TRUE(
        prefetcherRegistry().applyOptions("Stride", params, opts).ok());
    auto via_registry = prefetcherRegistry().create("Stride", params);
    ASSERT_TRUE(via_registry.ok());
    EXPECT_EQ(via_registry.value()->storageBits(),
              via_config->storageBits());

    // And differs from the Table II default-parameter build.
    auto default_build = prefetcherRegistry().create("Stride");
    ASSERT_TRUE(default_build.ok());
    EXPECT_NE(via_registry.value()->storageBits(),
              default_build.value()->storageBits());
}

TEST(PrefetcherRegistry, NamesAreUniqueAndSortedCaseInsensitively)
{
    // The table is kept in name order: `--scheme help` and the
    // tournament roster (zooSchemeNames()) list it as it stands.
    // Strictly increasing also rules out two rows one lookup could
    // not tell apart.
    const auto names = prefetcherRegistry().names();
    ASSERT_FALSE(names.empty());
    for (std::size_t i = 1; i < names.size(); ++i)
        EXPECT_LT(strcasecmp(names[i - 1].c_str(), names[i].c_str()), 0)
            << names[i - 1] << " / " << names[i];
}

} // anonymous namespace
} // namespace cbws
