/**
 * @file
 * Tests for the JSON writer and the SimResult JSON export.
 */

#include <gtest/gtest.h>

#include "base/json.hh"
#include "sim/report.hh"
#include "sim/statsdump.hh"

#include <sstream>
#include "workloads/registry.hh"

namespace cbws
{
namespace
{

TEST(JsonWriter, FlatObject)
{
    JsonWriter w;
    w.beginObject();
    w.field("name", "x");
    w.field("count", std::uint64_t(3));
    w.field("ratio", 0.5);
    w.field("flag", true);
    w.endObject();
    EXPECT_TRUE(w.balanced());
    EXPECT_EQ(w.str(),
              "{\"name\":\"x\",\"count\":3,\"ratio\":0.5,"
              "\"flag\":true}");
}

TEST(JsonWriter, NestedStructures)
{
    JsonWriter w;
    w.beginObject();
    w.key("list");
    w.beginArray();
    w.value(std::uint64_t(1));
    w.value(std::uint64_t(2));
    w.endArray();
    w.key("inner");
    w.beginObject();
    w.field("a", std::uint64_t(7));
    w.endObject();
    w.endObject();
    EXPECT_EQ(w.str(),
              "{\"list\":[1,2],\"inner\":{\"a\":7}}");
}

TEST(JsonWriter, EscapesStrings)
{
    JsonWriter w;
    w.beginObject();
    w.field("s", std::string("a\"b\\c\nd"));
    w.endObject();
    EXPECT_EQ(w.str(), "{\"s\":\"a\\\"b\\\\c\\nd\"}");
}

TEST(JsonWriter, EmptyContainers)
{
    JsonWriter w;
    w.beginArray();
    w.beginObject();
    w.endObject();
    w.endArray();
    EXPECT_EQ(w.str(), "[{}]");
}

TEST(Report, SimResultRoundTripsThroughPython)
{
    // Structural check: the export contains the headline fields and
    // parses as JSON (validated here by balanced braces/quotes and
    // key presence; the tools' output is validated against python in
    // CI-style usage).
    SimResult r;
    r.workload = "unit-test";
    r.prefetcher = "CBWS";
    r.core.instructions = 1000;
    r.core.cycles = 2000;
    r.mem.llcDemandMisses = 10;
    r.mem.demandL2Accesses = 50;
    const std::string json = toJson(r);
    EXPECT_NE(json.find("\"workload\":\"unit-test\""),
              std::string::npos);
    EXPECT_NE(json.find("\"prefetcher\":\"CBWS\""),
              std::string::npos);
    EXPECT_NE(json.find("\"ipc\":0.5"), std::string::npos);
    EXPECT_NE(json.find("\"classification\""), std::string::npos);
    EXPECT_NE(json.find("\"dram\""), std::string::npos);
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
}

TEST(Report, BatchIsArray)
{
    std::vector<SimResult> results(2);
    results[0].workload = "a";
    results[1].workload = "b";
    const std::string json = toJson(results);
    EXPECT_EQ(json.front(), '[');
    EXPECT_EQ(json.back(), ']');
    EXPECT_NE(json.find("\"a\""), std::string::npos);
    EXPECT_NE(json.find("\"b\""), std::string::npos);
}

TEST(Report, LiveSimulationExports)
{
    auto w = findWorkload("mxm-linpack");
    WorkloadParams params;
    params.maxInstructions = 5000;
    SystemConfig config;
    config.scheme = "CBWS+SMS";
    SimResult r = simulateWorkload(*w, config, params);
    const std::string json = toJson(r);
    EXPECT_NE(json.find("\"prefetcher\":\"CBWS+SMS\""),
              std::string::npos);
    EXPECT_NE(json.find("\"storage_bits\""), std::string::npos);
}

TEST(StatsDump, ContainsEveryCounterGroup)
{
    SimResult r;
    r.workload = "w";
    r.prefetcher = "SMS";
    r.core.instructions = 10;
    r.core.cycles = 20;
    std::ostringstream out;
    dumpStats(out, r);
    const std::string s = out.str();
    for (const char *key :
         {"sim.instructions", "sim.ipc", "core.branchMispredicts",
          "l1d.accesses", "l2.demandMisses", "pf.issued",
          "pf.timelyFraction", "dram.bytesRead"}) {
        EXPECT_NE(s.find(key), std::string::npos) << key;
    }
    EXPECT_NE(s.find("Begin Simulation Statistics"),
              std::string::npos);
    EXPECT_NE(s.find("End Simulation Statistics"),
              std::string::npos);
}

TEST(StatsDump, ValuesRendered)
{
    SimResult r;
    r.core.instructions = 1234;
    r.core.cycles = 2468;
    std::ostringstream out;
    dumpStats(out, r);
    EXPECT_NE(out.str().find("1234"), std::string::npos);
    EXPECT_NE(out.str().find("0.5"), std::string::npos); // ipc
}

} // anonymous namespace
} // namespace cbws
