/**
 * @file
 * Unit tests for the generic CBWS add-on wrapper (CBWS bolted onto an
 * arbitrary base prefetcher).
 */

#include <gtest/gtest.h>

#include "base/random.hh"
#include "prefetch/addon.hh"
#include "prefetch/ampm.hh"
#include "prefetch/stride.hh"
#include "sim/config.hh"
#include "test_util.hh"

namespace cbws
{
namespace
{

using test::MockSink;
using test::memCtx;

std::unique_ptr<CbwsAddOnPrefetcher>
makeCbwsStride()
{
    return std::make_unique<CbwsAddOnPrefetcher>(
        std::make_unique<StridePrefetcher>());
}

TEST(CbwsAddOn, NameReflectsBase)
{
    EXPECT_EQ(makeCbwsStride()->name(), "CBWS+Stride");
    CbwsAddOnPrefetcher ampm(std::make_unique<AmpmPrefetcher>());
    EXPECT_EQ(ampm.name(), "CBWS+AMPM");
}

TEST(CbwsAddOn, StorageIsSum)
{
    auto addon = makeCbwsStride();
    StridePrefetcher stride;
    CbwsPrefetcher cbws;
    EXPECT_EQ(addon->storageBits(),
              stride.storageBits() + cbws.storageBits());
}

TEST(CbwsAddOn, BaseIssuesWhenCbwsSilent)
{
    auto addon = makeCbwsStride();
    MockSink sink;
    // A strided stream outside any block: the base (stride) issues.
    for (int i = 0; i < 8; ++i)
        addon->observeAccess(memCtx(0x400, i * 128ull), sink);
    EXPECT_FALSE(sink.issued.empty());
}

TEST(CbwsAddOn, CbwsPredictsInsideBlocks)
{
    auto addon = makeCbwsStride();
    MockSink sink;
    for (unsigned b = 0; b < 24; ++b) {
        addon->blockBegin(1, sink);
        addon->observeCommit(memCtx(0x700, (9000 + b * 4ull) * 64),
                             sink);
        addon->blockEnd(1, sink);
    }
    EXPECT_TRUE(addon->cbws().lastBlockPredicted());
    EXPECT_TRUE(sink.wasIssued(9000 + 24ull * 4));
}

TEST(CbwsAddOn, BaseMutedWhileCbwsConfident)
{
    auto addon = makeCbwsStride();
    MockSink sink;
    for (unsigned b = 0; b < 24; ++b) {
        addon->blockBegin(1, sink);
        addon->observeCommit(memCtx(0x700, (9000 + b * 4ull) * 64),
                             sink);
        addon->blockEnd(1, sink);
    }
    ASSERT_TRUE(addon->cbws().lastBlockPredicted());

    // Inside a confident block, drive a trained stride stream: its
    // issues must be suppressed, not forwarded.
    addon->blockBegin(1, sink);
    const auto before = addon->suppressedBaseIssues();
    for (int i = 0; i < 8; ++i) {
        addon->observeAccess(
            memCtx(0x900, 0x4000000 + i * 128ull), sink);
    }
    EXPECT_GT(addon->suppressedBaseIssues(), before);
    for (LineAddr l : sink.issued)
        EXPECT_LT(l, 0x4000000u / 64); // nothing from the base stream
}

TEST(CbwsAddOn, UnmutedAfterBlockEnds)
{
    auto addon = makeCbwsStride();
    MockSink sink;
    Random rng(7);
    // Unpredictable blocks: CBWS never confident, base never muted.
    for (unsigned b = 0; b < 10; ++b) {
        addon->blockBegin(2, sink);
        addon->observeCommit(
            memCtx(0x700, rng.below(1 << 26) * 64), sink);
        addon->blockEnd(2, sink);
    }
    EXPECT_FALSE(addon->cbws().lastBlockPredicted());
    sink.issued.clear();
    for (int i = 0; i < 8; ++i) {
        addon->observeAccess(
            memCtx(0x900, 0x8000000 + i * 128ull), sink);
    }
    EXPECT_FALSE(sink.issued.empty());
}

TEST(CbwsAddOn, EndToEndThroughConfig)
{
    SystemConfig config;
    config.scheme = "CBWS+AMPM";
    auto pf = makePrefetcher(config);
    EXPECT_EQ(pf->name(), "CBWS+AMPM");
    EXPECT_EQ(extendedSchemeNames().size(), allSchemeNames().size() + 2);
    EXPECT_EQ(extendedSchemeNames().back(), "CBWS+AMPM");
}

} // anonymous namespace
} // namespace cbws
