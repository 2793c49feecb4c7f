/**
 * @file
 * The prefetchers' shared fully-associative LRU table: recency order,
 * eviction of the least recent entry, the victim hand-off, erase and
 * size, and the capacity check.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "prefetch/lru_table.hh"

namespace cbws
{
namespace
{

using Table = LruTable<int, std::string>;

/** Insert @p key (entry "v<key>"), returning the evicted entries. */
std::vector<std::string>
put(Table &table, int key)
{
    std::vector<std::string> evicted;
    table.insert(key, "v" + std::to_string(key),
                 [&](const std::string &victim) {
                     evicted.push_back(victim);
                 });
    return evicted;
}

TEST(LruTable, FullTableEvictsTheLeastRecentlyInserted)
{
    Table table(3, "test-entries");
    for (int k = 1; k <= 3; ++k)
        EXPECT_TRUE(put(table, k).empty());
    EXPECT_EQ(table.size(), 3u);

    EXPECT_EQ(put(table, 4), std::vector<std::string>{"v1"});
    EXPECT_EQ(put(table, 5), std::vector<std::string>{"v2"});
    EXPECT_EQ(table.size(), 3u);
    EXPECT_EQ(table.find(1), nullptr);
    EXPECT_EQ(table.find(2), nullptr);
    ASSERT_NE(table.find(3), nullptr);
    EXPECT_EQ(*table.find(3), "v3");
}

TEST(LruTable, FindMakesTheEntryMostRecentlyUsed)
{
    Table table(3, "test-entries");
    for (int k = 1; k <= 3; ++k)
        put(table, k);
    // Recency, most recent first: 3 2 1. Touching 1 and then 2
    // leaves 3 as the least recent.
    ASSERT_NE(table.find(1), nullptr);
    ASSERT_NE(table.find(2), nullptr);
    EXPECT_EQ(put(table, 4), std::vector<std::string>{"v3"});
    EXPECT_EQ(put(table, 5), std::vector<std::string>{"v1"});
    EXPECT_EQ(put(table, 6), std::vector<std::string>{"v2"});
    // A miss changes nothing: 4 is still the least recent.
    EXPECT_EQ(table.find(99), nullptr);
    EXPECT_EQ(put(table, 7), std::vector<std::string>{"v4"});
}

TEST(LruTable, FoundEntriesAreMutableInPlace)
{
    Table table(2, "test-entries");
    put(table, 1);
    *table.find(1) += "-updated";
    EXPECT_EQ(*table.find(1), "v1-updated");
}

TEST(LruTable, VictimIsHandedOutBeforeItIsErased)
{
    Table table(2, "test-entries");
    put(table, 1);
    put(table, 2);
    std::size_t size_during = 0;
    std::string seen;
    std::string &added =
        table.insert(3, "v3", [&](const std::string &victim) {
            seen = victim;
            size_during = table.size();
        });
    EXPECT_EQ(seen, "v1");
    EXPECT_EQ(size_during, 2u) << "victim must still be in the table";
    EXPECT_EQ(added, "v3");
    EXPECT_EQ(table.size(), 2u);
}

TEST(LruTable, EraseFreesASlotAndKeepsTheOrder)
{
    Table table(3, "test-entries");
    for (int k = 1; k <= 3; ++k)
        put(table, k);
    table.erase(2);
    table.erase(42); // absent: no-op
    EXPECT_EQ(table.size(), 2u);
    EXPECT_EQ(table.find(2), nullptr);
    // The freed slot absorbs one insert without an eviction.
    EXPECT_TRUE(put(table, 4).empty());
    EXPECT_EQ(put(table, 5), std::vector<std::string>{"v1"});

    // Erasing the most and least recent entries relinks both ends.
    table.erase(5);
    table.erase(3);
    EXPECT_EQ(table.size(), 1u);
    EXPECT_TRUE(put(table, 6).empty());
    EXPECT_TRUE(put(table, 7).empty());
    EXPECT_EQ(put(table, 8), std::vector<std::string>{"v4"});
}

TEST(LruTable, SingleEntryTableReplacesItsOnlyEntry)
{
    Table table(1, "test-entries");
    put(table, 1);
    ASSERT_NE(table.find(1), nullptr);
    EXPECT_EQ(put(table, 2), std::vector<std::string>{"v1"});
    EXPECT_EQ(table.size(), 1u);
    EXPECT_EQ(put(table, 3), std::vector<std::string>{"v2"});
}

TEST(LruTable, ZeroCapacityIsFatalAndNamesTheParameter)
{
    EXPECT_EXIT({ Table table(0, "Stride table-entries"); },
                testing::ExitedWithCode(1), "table-entries");
}

} // anonymous namespace
} // namespace cbws
