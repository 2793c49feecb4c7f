/**
 * @file
 * Unit tests for the integrated CBWS+SMS prefetcher — the CBWS add-on
 * over an SMS base: the fallback policy ("CBWS issues only on a
 * history-table hit; otherwise SMS issues") and storage accounting.
 */

#include <gtest/gtest.h>

#include <memory>

#include "base/random.hh"
#include "prefetch/addon.hh"
#include "prefetch/registry.hh"
#include "prefetch/sms.hh"
#include "test_util.hh"

namespace cbws
{
namespace
{

using test::MockSink;
using test::memCtx;

/** CBWS+SMS with Table II parameters, as the registry builds it. */
CbwsAddOnPrefetcher
cbwsSms()
{
    return CbwsAddOnPrefetcher(std::make_unique<SmsPrefetcher>());
}

TEST(CbwsSms, SmsActsOutsideBlocks)
{
    CbwsAddOnPrefetcher pf = cbwsSms();
    MockSink sink;
    // Train SMS outside any block.
    SmsParams sp;
    // (default params; just drive accesses)
    for (unsigned off : {0u, 3u})
        pf.observeAccess(memCtx(0x400, 10 * 2048 + off * 64), sink);
    for (std::uint64_t r : {20ull, 30ull, 40ull}) {
        for (unsigned off : {0u, 1u}) {
            pf.observeAccess(memCtx(0x900, r * 2048 + off * 64),
                             sink);
        }
    }
    // Enough generations (from a different trigger PC, so region
    // 10's PHT entry survives) evict region 10's pattern into the
    // PHT (AGT default is 32 entries, so force more regions).
    for (std::uint64_t r = 50; r < 90; ++r)
        for (unsigned off : {0u, 1u})
            pf.observeAccess(memCtx(0x900, r * 2048 + off * 64),
                             sink);
    sink.issued.clear();
    pf.observeAccess(memCtx(0x400, 200 * 2048), sink);
    EXPECT_TRUE(sink.wasIssued(lineOf(200 * 2048 + 3 * 64)));
}

TEST(CbwsSms, CbwsPredictsInsideConfidentBlocks)
{
    CbwsAddOnPrefetcher pf = cbwsSms();
    MockSink sink;
    for (unsigned b = 0; b < 24; ++b) {
        pf.blockBegin(1, sink);
        pf.observeCommit(memCtx(0x400, (1000 + b * 4ull) * 64), sink);
        pf.blockEnd(1, sink);
    }
    EXPECT_TRUE(pf.cbws().lastBlockPredicted());
    EXPECT_TRUE(sink.wasIssued(1000 + 24ull * 4));
}

TEST(CbwsSms, SmsMutedWhileCbwsConfident)
{
    CbwsAddOnPrefetcher pf = cbwsSms();
    MockSink sink;
    // Make CBWS confident on a trivial repeating block.
    for (unsigned b = 0; b < 24; ++b) {
        pf.blockBegin(1, sink);
        pf.observeCommit(memCtx(0x700, (5000 + b * 4ull) * 64), sink);
        pf.blockEnd(1, sink);
    }
    ASSERT_TRUE(pf.cbws().lastBlockPredicted());
    const auto suppressed_before = pf.suppressedBaseIssues();

    // Now, inside a confident block, drive accesses that would make
    // SMS issue (a previously learned trigger would be required;
    // instead we verify via the suppression counter that gated SMS
    // issues are counted, not forwarded).
    pf.blockBegin(1, sink);
    // Train + trigger SMS within the block across many regions; any
    // issue SMS attempts while muted increments the counter.
    for (std::uint64_t r = 300; r < 340; ++r)
        for (unsigned off : {0u, 1u})
            pf.observeAccess(memCtx(0x900, r * 2048 + off * 64),
                             sink);
    sink.issued.clear();
    pf.observeAccess(memCtx(0x900, 400 * 2048), sink);
    pf.observeAccess(memCtx(0x900, 401 * 2048), sink);
    // Either SMS had nothing to issue, or its issues were suppressed
    // — but nothing may reach the sink from SMS while muted.
    EXPECT_GE(pf.suppressedBaseIssues(), suppressed_before);
    for (LineAddr l : sink.issued) {
        // Any line issued inside the block must come from CBWS's
        // stream (around line 5000), not SMS regions (~12800+).
        EXPECT_LT(l, 10000u);
    }
}

TEST(CbwsSms, FallsBackWhenCbwsCannotPredict)
{
    CbwsAddOnPrefetcher pf = cbwsSms();
    MockSink sink;
    Random rng(3);
    // Random blocks: CBWS never becomes confident.
    for (unsigned b = 0; b < 30; ++b) {
        pf.blockBegin(2, sink);
        pf.observeCommit(
            memCtx(0x400, rng.below(1 << 26) * 64), sink);
        pf.blockEnd(2, sink);
    }
    EXPECT_FALSE(pf.cbws().lastBlockPredicted());
    // SMS trains/issues normally (not muted).
    pf.blockBegin(2, sink);
    for (std::uint64_t r = 10; r < 60; ++r)
        for (unsigned off : {0u, 5u})
            pf.observeAccess(memCtx(0xAAA, r * 2048 + off * 64),
                             sink);
    sink.issued.clear();
    pf.observeAccess(memCtx(0xAAA, 100 * 2048), sink);
    EXPECT_TRUE(sink.wasIssued(lineOf(100 * 2048 + 5 * 64)));
}

TEST(CbwsSms, StorageIsSumOfComponents)
{
    CbwsAddOnPrefetcher pf = cbwsSms();
    CbwsPrefetcher cbws;
    SmsPrefetcher sms;
    EXPECT_EQ(pf.storageBits(),
              cbws.storageBits() + sms.storageBits());
}

TEST(CbwsSms, Name)
{
    EXPECT_EQ(cbwsSms().name(), "CBWS+SMS");
    auto built = prefetcherRegistry().create("CBWS+SMS");
    ASSERT_TRUE(built.ok());
    EXPECT_EQ(built.value()->name(), "CBWS+SMS");
    EXPECT_NE(dynamic_cast<CbwsAddOnPrefetcher *>(built.value().get()),
              nullptr);
}

} // anonymous namespace
} // namespace cbws
