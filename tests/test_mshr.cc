/**
 * @file
 * Unit tests for the MSHR file: allocation, merge lookup, drains and
 * the next-ready fast path used by the core's idle skip.
 */

#include <gtest/gtest.h>

#include <vector>

#include "mem/mshr.hh"

namespace cbws
{
namespace
{

TEST(Mshr, AllocateAndFind)
{
    MshrFile m(4);
    EXPECT_FALSE(m.full());
    EXPECT_EQ(m.find(10), nullptr);
    auto &e = m.allocate(10, 100, false, false);
    EXPECT_EQ(e.line, 10u);
    EXPECT_EQ(e.readyAt, 100u);
    ASSERT_NE(m.find(10), nullptr);
    EXPECT_EQ(m.inFlight(), 1u);
}

TEST(Mshr, FullAtCapacity)
{
    MshrFile m(2);
    m.allocate(1, 10, false, false);
    m.allocate(2, 20, false, false);
    EXPECT_TRUE(m.full());
    EXPECT_EQ(m.inFlight(), 2u);
}

TEST(Mshr, DoubleAllocatePanics)
{
    MshrFile m(4);
    m.allocate(1, 10, false, false);
    EXPECT_DEATH({ m.allocate(1, 20, false, false); },
                 "double-allocation");
}

TEST(Mshr, DrainFiresOnlyCompleted)
{
    MshrFile m(4);
    m.allocate(1, 10, false, false);
    m.allocate(2, 20, false, false);
    std::vector<LineAddr> filled;
    m.drain(15, [&](const MshrFile::Entry &e) {
        filled.push_back(e.line);
    });
    ASSERT_EQ(filled.size(), 1u);
    EXPECT_EQ(filled[0], 1u);
    EXPECT_EQ(m.inFlight(), 1u);
    EXPECT_EQ(m.find(1), nullptr);
    EXPECT_NE(m.find(2), nullptr);
}

TEST(Mshr, NextReadyTracksEarliestFill)
{
    MshrFile m(4);
    EXPECT_GT(m.nextReady(), 1ull << 60);
    m.allocate(1, 50, false, false);
    m.allocate(2, 30, false, false);
    EXPECT_EQ(m.nextReady(), 30u);
    m.drain(30, [](const MshrFile::Entry &) {});
    EXPECT_EQ(m.nextReady(), 50u);
    m.drain(100, [](const MshrFile::Entry &) {});
    EXPECT_GT(m.nextReady(), 1ull << 60);
}

TEST(Mshr, DrainBeforeNextReadyIsFree)
{
    MshrFile m(4);
    m.allocate(1, 100, false, false);
    unsigned calls = 0;
    m.drain(50, [&](const MshrFile::Entry &) { ++calls; });
    EXPECT_EQ(calls, 0u);
    EXPECT_EQ(m.inFlight(), 1u);
}

TEST(Mshr, MergedFlagsPreserved)
{
    MshrFile m(4);
    auto &e = m.allocate(7, 40, /*is_prefetch=*/true,
                         /*is_write=*/false);
    e.demanded = true;
    e.isWrite = true;
    bool saw = false;
    m.drain(40, [&](const MshrFile::Entry &entry) {
        saw = true;
        EXPECT_TRUE(entry.isPrefetch);
        EXPECT_TRUE(entry.demanded);
        EXPECT_TRUE(entry.isWrite);
    });
    EXPECT_TRUE(saw);
}

TEST(Mshr, ClearDropsEverything)
{
    MshrFile m(2);
    m.allocate(1, 10, false, false);
    m.allocate(2, 20, false, false);
    m.clear();
    EXPECT_FALSE(m.full());
    EXPECT_EQ(m.inFlight(), 0u);
    EXPECT_GT(m.nextReady(), 1ull << 60);
}

TEST(Mshr, ReuseAfterDrain)
{
    MshrFile m(1);
    m.allocate(1, 10, false, false);
    EXPECT_TRUE(m.full());
    m.drain(10, [](const MshrFile::Entry &) {});
    EXPECT_FALSE(m.full());
    m.allocate(2, 20, false, false);
    EXPECT_NE(m.find(2), nullptr);
}

TEST(Mshr, FilterBucketAliasesStayExact)
{
    // Lines L and L + 256 share a filter bucket: the count lets the
    // walk run, and the walk must still match lines exactly.
    constexpr LineAddr L = 0x1234;
    MshrFile m(4);
    m.allocate(L, 10, false, false);
    EXPECT_EQ(m.find(L + 256), nullptr);
    m.allocate(L + 256, 20, false, false);
    m.drain(10, [](const MshrFile::Entry &) {});
    EXPECT_EQ(m.find(L), nullptr);
    const MshrFile &cm = m;
    ASSERT_NE(cm.find(L + 256), nullptr);
    EXPECT_EQ(cm.find(L + 256)->line, L + 256);
    EXPECT_DEATH({ m.allocate(L + 256, 30, false, false); },
                 "double-allocation");
}

} // anonymous namespace
} // namespace cbws
