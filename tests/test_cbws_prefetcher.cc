/**
 * @file
 * Unit tests for the CBWS prefetcher itself: Algorithm 1's tracking,
 * differential learning, multi-step prediction and the standalone
 * confidence rule.
 */

#include <gtest/gtest.h>

#include "core/cbws_prefetcher.hh"
#include "test_util.hh"

namespace cbws
{
namespace
{

using test::MockSink;
using test::memCtx;

/** Drive one block of accesses at the given lines. */
void
runBlock(CbwsPrefetcher &pf, MockSink &sink, BlockId id,
         std::initializer_list<LineAddr> lines)
{
    pf.blockBegin(id, sink);
    for (LineAddr l : lines)
        pf.observeCommit(memCtx(0x400, lineBase(l)), sink);
    pf.blockEnd(id, sink);
}

TEST(CbwsPrefetcher, TracksOnlyInsideBlocks)
{
    CbwsPrefetcher pf;
    MockSink sink;
    pf.observeCommit(memCtx(0x400, 0x1000), sink);
    EXPECT_EQ(pf.schemeStats().accessesOutsideBlock, 1u);
    EXPECT_EQ(pf.schemeStats().accessesTracked, 0u);
}

TEST(CbwsPrefetcher, CurrentCbwsDeduplicates)
{
    CbwsPrefetcher pf;
    MockSink sink;
    pf.blockBegin(1, sink);
    pf.observeCommit(memCtx(0x400, 0x1000), sink);
    pf.observeCommit(memCtx(0x404, 0x1008), sink); // same line
    pf.observeCommit(memCtx(0x408, 0x2000), sink);
    EXPECT_EQ(pf.currentCbws().size(), 2u);
}

TEST(CbwsPrefetcher, PredictsConstantStridePattern)
{
    // Blocks walk two streams: lines advance by +4 and +16 per block.
    CbwsPrefetcher pf;
    MockSink sink;
    const unsigned blocks = 24;
    for (unsigned b = 0; b < blocks; ++b) {
        runBlock(pf, sink, 1,
                 {1000 + b * 4ull, 50000 + b * 16ull});
    }
    const auto &s = pf.schemeStats();
    EXPECT_EQ(s.blocksCompleted, blocks);
    EXPECT_GT(s.tableHits, 0u);
    EXPECT_GT(s.linesPredicted, 0u);
    // The most recent block is n = blocks-1; step-k predictions
    // target blocks n+k.
    const std::uint64_t n = blocks - 1;
    EXPECT_TRUE(sink.wasIssued(1000 + (n + 1) * 4));
    EXPECT_TRUE(sink.wasIssued(50000 + (n + 1) * 16));
    EXPECT_TRUE(sink.wasIssued(1000 + (n + 4) * 4));
    EXPECT_TRUE(sink.wasIssued(50000 + (n + 4) * 16));
}

TEST(CbwsPrefetcher, SilentWithoutTableHit)
{
    // Random working sets: no history repeats, so the standalone
    // confidence rule must keep the prefetcher quiet.
    CbwsPrefetcher pf;
    MockSink sink;
    Random rng(5);
    for (unsigned b = 0; b < 50; ++b) {
        runBlock(pf, sink, 1,
                 {rng.below(1 << 28), rng.below(1 << 28),
                  rng.below(1 << 28)});
    }
    // A 16-bit tag over random histories rarely collides; allow a few.
    EXPECT_LT(sink.issued.size(), 12u);
    EXPECT_GT(pf.schemeStats().tableMisses,
              pf.schemeStats().tableHits);
}

TEST(CbwsPrefetcher, SkipsCachedLines)
{
    CbwsPrefetcher pf;
    MockSink sink;
    // Mark the whole predicted range as cached.
    for (LineAddr l = 0; l < 200000; ++l)
        if (l % 4 == 0)
            sink.cached.insert(l);
    for (unsigned b = 0; b < 24; ++b)
        runBlock(pf, sink, 1, {1000 + b * 4ull});
    // Every predicted line (stride 4 from 1000) is cached -> nothing
    // issued ("skipping addresses that are already cached").
    EXPECT_TRUE(sink.issued.empty());
    EXPECT_GT(pf.schemeStats().tableHits, 0u);
}

TEST(CbwsPrefetcher, BlockIdSwitchClearsContext)
{
    CbwsPrefetcher pf;
    MockSink sink;
    for (unsigned b = 0; b < 12; ++b)
        runBlock(pf, sink, 1, {1000 + b * 4ull});
    EXPECT_GT(pf.schemeStats().tableHits, 0u);
    const auto hits_before = pf.schemeStats().tableHits;

    // A different static block discards last-CBWS buffers and
    // histories: the first block of id 2 has no history to look up.
    // (Later blocks may alias id-1 table entries: the table itself is
    // shared hardware and is deliberately not cleared.)
    runBlock(pf, sink, 2, {90000});
    EXPECT_EQ(pf.schemeStats().tableHits, hits_before);
}

TEST(CbwsPrefetcher, StrictlyAlternatingBlocksNeverHit)
{
    // The single-context unit clears its history on every block-id
    // switch, so two strictly alternating loops never build the two
    // consecutive differentials a table lookup needs.
    CbwsPrefetcher pf;
    MockSink sink;
    for (unsigned b = 0; b < 40; ++b) {
        runBlock(pf, sink, 1, {10000 + b * 4ull});
        runBlock(pf, sink, 2, {900000 + b * 8ull});
    }
    EXPECT_EQ(pf.schemeStats().tableHits, 0u);
    EXPECT_TRUE(sink.issued.empty());
}

TEST(CbwsPrefetcher, TruncationAtSixteenLines)
{
    CbwsPrefetcher pf;
    MockSink sink;
    pf.blockBegin(3, sink);
    for (unsigned i = 0; i < 24; ++i)
        pf.observeCommit(memCtx(0x400, i * 64ull * 100), sink);
    pf.blockEnd(3, sink);
    EXPECT_EQ(pf.schemeStats().blocksTruncated, 1u);
    EXPECT_EQ(pf.schemeStats().accessesTracked, 16u);
}

TEST(CbwsPrefetcher, UnpairedBlockEndIsDropped)
{
    CbwsPrefetcher pf;
    MockSink sink;
    pf.blockEnd(9, sink); // never begun
    EXPECT_EQ(pf.schemeStats().blocksCompleted, 0u);
    // Mismatched id also drops.
    pf.blockBegin(1, sink);
    pf.observeCommit(memCtx(0x400, 0x1000), sink);
    pf.blockEnd(2, sink);
    EXPECT_EQ(pf.schemeStats().blocksCompleted, 0u);
}

TEST(CbwsPrefetcher, MissesOnlyTrainingFilter)
{
    CbwsParams params;
    params.trainOnHits = false;
    CbwsPrefetcher pf(params);
    MockSink sink;
    pf.blockBegin(1, sink);
    pf.observeCommit(memCtx(0x400, 0x1000, false, /*l1_hit=*/true),
                     sink);
    pf.observeCommit(memCtx(0x404, 0x2000, false, /*l1_hit=*/false),
                     sink);
    EXPECT_EQ(pf.currentCbws().size(), 1u);
}

TEST(CbwsPrefetcher, DifferentialProbeSamplesPerBlock)
{
    CbwsPrefetcher pf;
    FrequencyCounter probe;
    pf.setDifferentialProbe(&probe);
    MockSink sink;
    for (unsigned b = 0; b < 20; ++b)
        runBlock(pf, sink, 1, {1000 + b * 4ull});
    // One 1-step differential per block after the first.
    EXPECT_EQ(probe.total(), 19u);
    // Constant stride -> a single distinct differential vector.
    EXPECT_EQ(probe.distinct(), 1u);
}

TEST(CbwsPrefetcher, StorageBudgetUnder1KB)
{
    CbwsPrefetcher pf;
    EXPECT_LT(pf.storageBits(), 8192u); // < 1 KB, as the paper claims
    EXPECT_GT(pf.storageBits(), 4096u); // but not trivially small
}

TEST(CbwsPrefetcher, LastBlockPredictedFlag)
{
    CbwsPrefetcher pf;
    MockSink sink;
    EXPECT_FALSE(pf.lastBlockPredicted());
    for (unsigned b = 0; b < 16; ++b)
        runBlock(pf, sink, 1, {1000 + b * 4ull});
    EXPECT_TRUE(pf.lastBlockPredicted());
    EXPECT_FALSE(pf.inBlock());
    pf.blockBegin(1, sink);
    EXPECT_TRUE(pf.inBlock());
}

TEST(CbwsPrefetcher, BranchDivergenceDegradesPrediction)
{
    // Alternating working-set sizes (the soplex failure mode): the
    // differential stream mixes sizes, so hit rate drops sharply
    // compared to the uniform case.
    auto hit_fraction = [](bool diverge) {
        CbwsPrefetcher pf;
        MockSink sink;
        Random rng(3);
        for (unsigned b = 0; b < 200; ++b) {
            pf.blockBegin(1, sink);
            pf.observeCommit(memCtx(0x400, (1000 + b * 4ull) * 64),
                             sink);
            pf.observeCommit(memCtx(0x404, (50000 + b * 8ull) * 64),
                             sink);
            if (diverge && rng.chance(0.5)) {
                pf.observeCommit(
                    memCtx(0x408, rng.below(1 << 20) * 64), sink);
            }
            pf.blockEnd(1, sink);
        }
        const auto &s = pf.schemeStats();
        return static_cast<double>(s.tableHits) /
               static_cast<double>(s.tableHits + s.tableMisses);
    };
    EXPECT_GT(hit_fraction(false), 0.8);
    EXPECT_LT(hit_fraction(true), hit_fraction(false) * 0.8);
}

TEST(CbwsPrefetcher, MultiStepDepthConfigurable)
{
    CbwsParams params;
    params.numSteps = 2;
    CbwsPrefetcher pf(params);
    MockSink sink;
    for (unsigned b = 0; b < 24; ++b)
        runBlock(pf, sink, 1, {1000 + b * 4ull});
    const std::uint64_t n = 24 - 1;
    EXPECT_TRUE(sink.wasIssued(1000 + (n + 2) * 4));
    EXPECT_FALSE(sink.wasIssued(1000 + (n + 4) * 4));
}

} // anonymous namespace
} // namespace cbws
