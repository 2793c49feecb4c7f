/**
 * @file
 * The scheme-parameter API: ParamSchema bindings, `--pf-opt`
 * key=value parsing, composite scoping, and the describe() seam.
 * Every failure must be a Result error naming the offending key —
 * these strings are the CLI's user-facing diagnostics.
 */

#include <gtest/gtest.h>

#include <string>

#include "core/cbws_prefetcher.hh"
#include "prefetch/pythia.hh"
#include "prefetch/registry.hh"
#include "sim/config.hh"

namespace cbws
{
namespace
{

TEST(ParamSchema, AppliesValuesOntoTheParamStruct)
{
    ParamSet params;
    const ParamSchema schema = cbwsParamSchema();
    ASSERT_TRUE(schema.accepts("table-entries"));
    Result<void> r = schema.apply(params, "table-entries", "64");
    ASSERT_TRUE(r.ok()) << r.error().str();
    EXPECT_EQ(params.getOr<CbwsParams>().tableEntries, 64u);

    // A second key composes onto the same struct.
    r = schema.apply(params, "num-steps", "2");
    ASSERT_TRUE(r.ok()) << r.error().str();
    EXPECT_EQ(params.getOr<CbwsParams>().tableEntries, 64u);
    EXPECT_EQ(params.getOr<CbwsParams>().numSteps, 2u);

    // Integers are decimal: a leading zero is not an octal prefix.
    r = schema.apply(params, "table-entries", "010");
    ASSERT_TRUE(r.ok()) << r.error().str();
    EXPECT_EQ(params.getOr<CbwsParams>().tableEntries, 10u);
}

TEST(ParamSchema, UnknownKeyIsNotFoundAndNamesTheKey)
{
    ParamSet params;
    Result<void> r =
        cbwsParamSchema().apply(params, "warp-drive", "9");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), Errc::NotFound);
    EXPECT_NE(r.error().message.find("warp-drive"),
              std::string::npos);
}

TEST(ParamSchema, MalformedValuesAreInvalidArgument)
{
    ParamSet params;
    const ParamSchema schema = cbwsParamSchema();
    // uint keys take plain decimal digits only: junk, negative,
    // trailing garbage, hex, a sign or whitespace all fail.
    for (const char *bad : {"abc", "-3", "12abc", "", "0x10", "+5",
                            " 5"}) {
        Result<void> r =
            schema.apply(params, "table-entries", bad);
        ASSERT_FALSE(r.ok()) << "'" << bad << "' must not parse";
        EXPECT_EQ(r.code(), Errc::InvalidArgument) << bad;
        EXPECT_NE(r.error().message.find("table-entries"),
                  std::string::npos)
            << "error must name the key for '" << bad << "'";
    }
    // A 64-bit key rejects values past 2^64-1 instead of saturating,
    // and a space before '-' does not sneak a negative past the check.
    for (const char *bad :
         {"99999999999999999999", "18446744073709551616", " -1"}) {
        Result<void> r = schema.apply(params, "table-seed", bad);
        ASSERT_FALSE(r.ok()) << "'" << bad << "' must not parse";
        EXPECT_EQ(r.code(), Errc::InvalidArgument) << bad;
        EXPECT_NE(r.error().message.find("table-seed"),
                  std::string::npos)
            << bad;
    }
    // int keys take an optional leading '-' and nothing else.
    const ParamSchema pythia = pythiaParamSchema();
    for (const char *bad : {" 5", "+5", "0x10", "--5", "5 ",
                            "99999999999"}) {
        Result<void> r = pythia.apply(params, "reward-accurate", bad);
        ASSERT_FALSE(r.ok()) << "'" << bad << "' must not parse";
        EXPECT_EQ(r.code(), Errc::InvalidArgument) << bad;
        EXPECT_NE(r.error().message.find("reward-accurate"),
                  std::string::npos)
            << bad;
    }
    ASSERT_TRUE(pythia.apply(params, "reward-accurate", "-7").ok());
    EXPECT_EQ(params.getOr<PythiaParams>().rewardAccurate, -7);
    // bool key rejects non-boolean text.
    Result<void> r = schema.apply(params, "train-on-hits", "maybe");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), Errc::InvalidArgument);

    // Nothing was written through the failing applications.
    EXPECT_EQ(params.getOr<CbwsParams>().tableEntries,
              CbwsParams().tableEntries);
}

TEST(ParamSchema, BoolKeysAcceptTheUsualSpellings)
{
    ParamSet params;
    const ParamSchema schema = cbwsParamSchema();
    for (const char *yes : {"1", "true", "on", "yes"}) {
        ASSERT_TRUE(
            schema.apply(params, "train-on-hits", yes).ok());
        EXPECT_TRUE(params.getOr<CbwsParams>().trainOnHits) << yes;
    }
    for (const char *no : {"0", "false", "off", "no"}) {
        ASSERT_TRUE(schema.apply(params, "train-on-hits", no).ok());
        EXPECT_FALSE(params.getOr<CbwsParams>().trainOnHits) << no;
    }
}

TEST(ParamApi, OptionsMustBeKeyEqualsValue)
{
    ParamSet params;
    for (const char *bad : {"degree", "=4", "degree=", ""}) {
        Result<void> r = prefetcherRegistry().applyOptions(
            "Stride", params, {bad});
        ASSERT_FALSE(r.ok()) << "'" << bad << "' must be rejected";
        EXPECT_EQ(r.code(), Errc::InvalidArgument) << bad;
        EXPECT_NE(r.error().message.find("key=value"),
                  std::string::npos)
            << bad;
    }
}

TEST(ParamApi, ApplyOptionsRejectsKeysTheSchemeDoesNotAccept)
{
    ParamSet params;
    Result<void> r = prefetcherRegistry().applyOptions(
        "Stride", params, {"region-bytes=4096"});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), Errc::InvalidArgument);
    // The error lists the scheme and its accepted keys.
    EXPECT_NE(r.error().message.find("Stride"), std::string::npos);
    EXPECT_NE(r.error().message.find("degree"), std::string::npos);

    // The same key is fine when the caller pre-validated against a
    // multi-scheme selection (ignore_unknown).
    r = prefetcherRegistry().applyOptions(
        "Stride", params, {"region-bytes=4096"},
        /*ignore_unknown=*/true);
    EXPECT_TRUE(r.ok());
}

TEST(ParamApi, ValidateOptionsChecksTheWholeSelection)
{
    // A key accepted by any selected scheme passes...
    Result<void> r = prefetcherRegistry().validateOptions(
        {"Stride", "SMS"}, {"region-bytes=4096", "degree=2"});
    EXPECT_TRUE(r.ok()) << r.error().str();

    // ...an unknown key fails naming the accepted keys per scheme...
    r = prefetcherRegistry().validateOptions({"Stride", "SMS"},
                                             {"warp-drive=9"});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), Errc::InvalidArgument);
    EXPECT_NE(r.error().message.find("warp-drive"),
              std::string::npos);

    // ...a bad value fails even when some scheme accepts the key...
    r = prefetcherRegistry().validateOptions({"Stride"},
                                             {"degree=banana"});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), Errc::InvalidArgument);

    // ...and an unregistered scheme is NotFound.
    r = prefetcherRegistry().validateOptions({"warp-engine"}, {});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), Errc::NotFound);
}

TEST(ParamApi, CompositeSchemesScopePerComponent)
{
    // cbws.* reaches the CBWS side of CBWS+SMS, sms.* the SMS side;
    // the unscoped spelling is not a composite key.
    const ParamSchema schema =
        prefetcherRegistry().paramSchema("CBWS+SMS");
    EXPECT_TRUE(schema.accepts("cbws.table-entries"));
    EXPECT_TRUE(schema.accepts("sms.region-bytes"));
    EXPECT_FALSE(schema.accepts("table-entries"));
    EXPECT_FALSE(schema.accepts("region-bytes"));

    // Scoped options change the built hardware budget on the right
    // component.
    auto build = [](const std::vector<std::string> &opts) {
        ParamSet params;
        Result<void> applied = prefetcherRegistry().applyOptions(
            "CBWS+SMS", params, opts);
        EXPECT_TRUE(applied.ok()) << applied.error().str();
        auto r = prefetcherRegistry().create("CBWS+SMS", params);
        EXPECT_TRUE(r.ok());
        return r.value()->storageBits();
    };
    const std::uint64_t default_bits = build({});
    EXPECT_NE(build({"cbws.table-entries=64"}), default_bits);
    EXPECT_NE(build({"sms.pht-entries=128"}), default_bits);
}

TEST(ParamApi, DescribeRoundTripsForEveryRegisteredScheme)
{
    // For every scheme: each described key must re-apply its own
    // rendered default successfully, and the resulting build must
    // equal the default-parameter build — i.e. describe() tells the
    // truth about keys, types and defaults.
    for (const auto &name : prefetcherRegistry().names()) {
        const auto keys = prefetcherRegistry().describeParams(name);
        ParamSet params;
        const ParamSchema schema =
            prefetcherRegistry().paramSchema(name);
        for (const auto &info : keys) {
            EXPECT_FALSE(info.type.empty()) << name << "." << info.key;
            EXPECT_FALSE(info.help.empty()) << name << "." << info.key;
            Result<void> r =
                schema.apply(params, info.key, info.defaultValue);
            EXPECT_TRUE(r.ok())
                << name << "." << info.key << " default '"
                << info.defaultValue
                << "' must round-trip: " << r.error().str();
        }
        auto defaults = prefetcherRegistry().create(name);
        auto roundtrip = prefetcherRegistry().create(name, params);
        ASSERT_TRUE(defaults.ok()) << name;
        ASSERT_TRUE(roundtrip.ok()) << name;
        EXPECT_EQ(roundtrip.value()->storageBits(),
                  defaults.value()->storageBits())
            << name;
        EXPECT_EQ(roundtrip.value()->name(),
                  defaults.value()->name())
            << name;
    }
}

TEST(ParamApi, EverySchemeButTheBaselineHasParameters)
{
    for (const auto &name : prefetcherRegistry().names()) {
        const bool baseline = name == "No-Prefetch";
        EXPECT_EQ(prefetcherRegistry().describeParams(name).empty(),
                  baseline)
            << name;
    }
}

TEST(ParamApiDeathTest, OutOfRangeSizesAreFatalAndNameTheKey)
{
    // Unchecked, each value would crash the simulator mid-run (a
    // divide by zero, an erase from an empty container) or hang it
    // (the CBWS tag fold). The scheme's constructor refuses it
    // instead: exit 1, with the key in the message.
    struct Case
    {
        const char *scheme;
        const char *key;
        const char *value;
    };
    const Case cases[] = {
        // The LRU tables' capacities.
        {"Stride", "table-entries", "0"},
        {"Multistride", "table-entries", "0"},
        {"AMPM", "map-entries", "0"},
        {"Pangloss", "page-entries", "0"},
        {"SMS", "agt-entries", "0"},
        {"SMS", "filter-entries", "0"},
        // The other sizes and widths.
        {"CBWS", "table-entries", "0"},
        {"CBWS", "tag-bits", "0"},
        {"CBWS", "tag-bits", "17"},
        {"CBWS", "tag-bits", "64"},
        {"GHB-G/DC", "buffer-entries", "0"},
        {"GHB-PC/DC", "buffer-entries", "0"},
        {"Multistride", "history-length", "0"},
        {"Pangloss", "assoc", "0"},
        {"Pythia", "q-entries", "0"},
        {"Pythia", "eq-entries", "0"},
        {"SMS", "pht-entries", "0"},
        {"SMS", "pht-entries", "6"},
        {"SMS", "pht-assoc", "0"},
    };
    for (const Case &c : cases) {
        const std::string opt = std::string(c.key) + "=" + c.value;
        ParamSet params;
        ASSERT_TRUE(prefetcherRegistry().applyOptions(c.scheme, params,
                                                      {opt}))
            << c.scheme << " " << opt;
        EXPECT_EXIT(
            { (void)prefetcherRegistry().create(c.scheme, params); },
            testing::ExitedWithCode(1), c.key)
            << c.scheme << " " << opt;
    }
}

TEST(ParamApi, TableSizesAboveTheirBoundAreRefusedWhileParsing)
{
    // Every key that sizes an allocation carries a bound, so a huge
    // value fails as a parse error naming the key and the bound,
    // before any scheme allocates. The bound itself parses.
    unsigned bounded = 0;
    for (const auto &scheme : prefetcherRegistry().names()) {
        const ParamSchema schema =
            prefetcherRegistry().paramSchema(scheme);
        for (const auto &info : schema.keys()) {
            const std::string &key = info.key;
            const bool sizes_a_table =
                key.ends_with("entries") ||
                key.ends_with("max-vector-members");
            const auto at = info.help.find("(at most ");
            ASSERT_EQ(at != std::string::npos,
                      sizes_a_table || key.ends_with("page-bytes") ||
                          key.ends_with("zone-bytes"))
                << scheme << " " << key;
            if (at == std::string::npos)
                continue;
            ++bounded;
            const std::string max = info.help.substr(
                at + 9, info.help.find(')', at) - at - 9);
            ParamSet params;
            Result<void> r = prefetcherRegistry().applyOptions(
                scheme, params, {key + "=4294967295"});
            ASSERT_FALSE(r.ok()) << scheme << " " << key;
            EXPECT_EQ(r.error().code, Errc::InvalidArgument);
            EXPECT_NE(r.error().message.find(key), std::string::npos)
                << r.error().message;
            EXPECT_NE(r.error().message.find("maximum " + max),
                      std::string::npos)
                << r.error().message;
            EXPECT_TRUE(prefetcherRegistry()
                            .validateOptions({scheme}, {key + "=" + max})
                            .ok())
                << scheme << " " << key << "=" << max;
        }
    }
    EXPECT_GE(bounded, 16u);
}

TEST(ParamApi, PfOptsFlowThroughSystemConfig)
{
    // The makePrefetcher path: config.pfOpts land on the built
    // scheme (pre-validated keys for other schemes are skipped).
    SystemConfig config;
    config.scheme = "Stride";
    config.pfOpts = {"table-entries=512", "region-bytes=4096"};
    auto pf = makePrefetcher(config);
    SystemConfig defaults;
    defaults.scheme = "Stride";
    auto base = makePrefetcher(defaults);
    EXPECT_NE(pf->storageBits(), base->storageBits());
}

} // anonymous namespace
} // namespace cbws
