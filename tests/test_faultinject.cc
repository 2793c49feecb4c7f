/**
 * @file
 * Deterministic fault-injection harness: firing schedules must be a
 * pure function of (seed, site, hit index), CBWS_FAULT parsing must
 * reject bad specs without leaving sites half-armed, and the
 * trace-cache corruption path must degrade to re-synthesis — never
 * a crash, never silently wrong data.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "base/faultinject.hh"
#include "trace/tracecache.hh"
#include "workloads/registry.hh"

namespace cbws
{
namespace
{

/** The injector is process-global; leave it disarmed for everyone. */
class FaultInjectTest : public ::testing::Test
{
  protected:
    void SetUp() override { FaultInjector::instance().reset(); }

    void
    TearDown() override
    {
        FaultInjector::instance().reset();
        ::unsetenv("CBWS_FAULT");
        ::unsetenv("CBWS_FAULT_SEED");
    }
};

TEST_F(FaultInjectTest, DisarmedSiteNeverFires)
{
    auto &fi = FaultInjector::instance();
    EXPECT_FALSE(fi.anyArmed());
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(fi.shouldFire(FaultSite::CheckpointAppend));
    EXPECT_EQ(fi.fired(FaultSite::CheckpointAppend), 0u);
}

TEST_F(FaultInjectTest, ArmAtFiresExactlyOnTheListedHits)
{
    auto &fi = FaultInjector::instance();
    fi.armAt(FaultSite::CheckpointAppend, {3, 7});
    std::vector<std::uint64_t> fired;
    for (std::uint64_t n = 1; n <= 10; ++n)
        if (fi.shouldFire(FaultSite::CheckpointAppend))
            fired.push_back(n);
    EXPECT_EQ(fired, (std::vector<std::uint64_t>{3, 7}));
    EXPECT_EQ(fi.hits(FaultSite::CheckpointAppend), 10u);
    EXPECT_EQ(fi.fired(FaultSite::CheckpointAppend), 2u);
}

TEST_F(FaultInjectTest, RateScheduleIsDeterministicPerSeed)
{
    auto &fi = FaultInjector::instance();

    const auto schedule = [&](std::uint64_t seed) {
        fi.reset();
        fi.arm(FaultSite::CheckpointAppend, 0.5, seed);
        std::vector<bool> fires;
        for (int i = 0; i < 200; ++i)
            fires.push_back(fi.shouldFire(FaultSite::CheckpointAppend));
        return fires;
    };

    const auto a = schedule(42);
    EXPECT_EQ(a, schedule(42)) << "same seed, same schedule";
    EXPECT_NE(a, schedule(43)) << "different seed, different schedule";

    // A 0.5 rate over 200 hits should fire a plausible fraction —
    // the draw is uniform, not degenerate.
    const auto fired = std::count(a.begin(), a.end(), true);
    EXPECT_GT(fired, 50);
    EXPECT_LT(fired, 150);
}

TEST_F(FaultInjectTest, RateOneFiresAlwaysRateZeroDisarms)
{
    auto &fi = FaultInjector::instance();
    fi.arm(FaultSite::TraceCacheStore, 1.0);
    EXPECT_TRUE(fi.shouldFire(FaultSite::TraceCacheStore));
    EXPECT_TRUE(fi.shouldFire(FaultSite::TraceCacheStore));

    fi.arm(FaultSite::TraceCacheStore, 0.0);
    EXPECT_FALSE(fi.shouldFire(FaultSite::TraceCacheStore));
}

TEST_F(FaultInjectTest, ConfigureFromEnvParsesRatesAndExactHits)
{
    ::setenv("CBWS_FAULT", "checkpoint-append@2,trace-cache-load:0.25",
             1);
    ::setenv("CBWS_FAULT_SEED", "9", 1);
    auto &fi = FaultInjector::instance();
    ASSERT_TRUE(fi.configureFromEnv());
    EXPECT_TRUE(fi.anyArmed());

    EXPECT_FALSE(fi.shouldFire(FaultSite::CheckpointAppend)); // hit 1
    EXPECT_TRUE(fi.shouldFire(FaultSite::CheckpointAppend));  // hit 2
    EXPECT_FALSE(fi.shouldFire(FaultSite::CheckpointAppend)); // hit 3
}

TEST_F(FaultInjectTest, BareSiteNameMeansAlwaysFire)
{
    ::setenv("CBWS_FAULT", "checkpoint-append", 1);
    auto &fi = FaultInjector::instance();
    ASSERT_TRUE(fi.configureFromEnv());
    EXPECT_TRUE(fi.shouldFire(FaultSite::CheckpointAppend));
}

TEST_F(FaultInjectTest, UnsetOrEmptyEnvDisablesEverything)
{
    ::unsetenv("CBWS_FAULT");
    auto &fi = FaultInjector::instance();
    ASSERT_TRUE(fi.configureFromEnv());
    EXPECT_FALSE(fi.anyArmed());

    ::setenv("CBWS_FAULT", "", 1);
    ASSERT_TRUE(fi.configureFromEnv());
    EXPECT_FALSE(fi.anyArmed());
}

TEST_F(FaultInjectTest, BadSpecsAreRejectedAndLeaveNothingArmed)
{
    auto &fi = FaultInjector::instance();
    const char *bad[] = {
        "no-such-site",                 // unknown name
        "checkpoint-append@0",          // hit indices are 1-based
        "checkpoint-append@two",        // non-numeric hit
        "trace-cache-load:0.5x",        // trailing junk on the rate
        "checkpoint-append:1,nope:0.5", // later item poisons it all
    };
    for (const char *spec : bad) {
        ::setenv("CBWS_FAULT", spec, 1);
        Result<void> r = fi.configureFromEnv();
        EXPECT_FALSE(r) << spec;
        EXPECT_EQ(r.code(), Errc::InvalidArgument) << spec;
        EXPECT_FALSE(fi.anyArmed()) << spec;
    }
}

TEST_F(FaultInjectTest, SiteNamesRoundTripThroughTheEnvSyntax)
{
    auto &fi = FaultInjector::instance();
    for (unsigned i = 0; i < NumFaultSites; ++i) {
        const auto site = static_cast<FaultSite>(i);
        ::setenv("CBWS_FAULT",
                 (std::string(toString(site)) + "@1").c_str(), 1);
        ASSERT_TRUE(fi.configureFromEnv()) << toString(site);
        EXPECT_TRUE(fi.shouldFire(site)) << toString(site);
        fi.reset();
    }
}

/** Temp-file fixture for the corruption helpers. */
class CorruptFileTest : public FaultInjectTest
{
  protected:
    void
    SetUp() override
    {
        FaultInjectTest::SetUp();
        char tmpl[] = "/tmp/cbws-faultinject-XXXXXX";
        ASSERT_NE(::mkdtemp(tmpl), nullptr);
        dir_ = tmpl;
    }

    void
    TearDown() override
    {
        const std::string cmd = "rm -rf '" + dir_ + "'";
        if (std::system(cmd.c_str()) != 0)
            ADD_FAILURE() << "cleanup failed: " << cmd;
        FaultInjectTest::TearDown();
    }

    std::string
    writeFile(const std::string &name, const std::string &content)
    {
        const std::string path = dir_ + "/" + name;
        std::FILE *f = std::fopen(path.c_str(), "wb");
        EXPECT_NE(f, nullptr);
        std::fwrite(content.data(), 1, content.size(), f);
        std::fclose(f);
        return path;
    }

    static std::string
    readFile(const std::string &path)
    {
        std::FILE *f = std::fopen(path.c_str(), "rb");
        EXPECT_NE(f, nullptr);
        std::string out;
        char buf[4096];
        std::size_t got;
        while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
            out.append(buf, got);
        std::fclose(f);
        return out;
    }

    std::string dir_;
};

TEST_F(CorruptFileTest, TruncateHalvesTheFile)
{
    const std::string content(1000, 'x');
    const std::string path = writeFile("t.bin", content);
    ASSERT_TRUE(faultinject::corruptFile(
        path, faultinject::CorruptMode::Truncate, 1));
    EXPECT_EQ(readFile(path).size(), content.size() / 2);
}

TEST_F(CorruptFileTest, FlipBytesKeepsSizeChangesContent)
{
    const std::string content(1000, 'x');
    const std::string path = writeFile("f.bin", content);
    ASSERT_TRUE(faultinject::corruptFile(
        path, faultinject::CorruptMode::FlipBytes, 1));
    const std::string after = readFile(path);
    EXPECT_EQ(after.size(), content.size());
    EXPECT_NE(after, content);

    // Deterministic: the same seed flips the same bytes back.
    ASSERT_TRUE(faultinject::corruptFile(
        path, faultinject::CorruptMode::FlipBytes, 1));
    EXPECT_EQ(readFile(path), content);
}

TEST_F(CorruptFileTest, MissingFileIsNotFound)
{
    Result<void> r = faultinject::corruptFile(
        dir_ + "/absent", faultinject::CorruptMode::Truncate, 1);
    ASSERT_FALSE(r);
    EXPECT_EQ(r.code(), Errc::NotFound);
}

TEST_F(CorruptFileTest, CorruptedTraceCacheFileFallsBackToResynthesis)
{
    // The acceptance scenario: a cache hit turns out to be damaged;
    // the load reports Corrupt (not a crash), the caller
    // re-synthesises, and a re-store repairs the cache. Truncation
    // is the damage the format always detects (the body carries no
    // checksum, so mid-payload bit flips can slip through — a
    // documented trade-off of the compact binary format).
    TraceCache cache(dir_);
    auto workload = findWorkload("fft-simlarge");
    ASSERT_NE(workload, nullptr);
    WorkloadParams params;
    params.maxInstructions = 6000;
    params.seed = 42;
    Trace original;
    workload->generate(original, params);
    const TraceCache::Key key{"fft-simlarge", 6000, 42};
    ASSERT_TRUE(cache.store(key, original));

    ASSERT_TRUE(faultinject::corruptFile(
        cache.pathFor(key), faultinject::CorruptMode::Truncate, 3));
    Trace loaded;
    Result<void> r = cache.load(key, loaded);
    ASSERT_FALSE(r);
    EXPECT_EQ(r.code(), Errc::Corrupt);
    EXPECT_TRUE(loaded.empty()) << "failed load must leave no data";

    // Re-synthesise and repair, as runMatrix does on any miss.
    Trace fresh;
    workload->generate(fresh, params);
    ASSERT_TRUE(cache.store(key, fresh));
    ASSERT_TRUE(cache.load(key, loaded));
    EXPECT_EQ(loaded.size(), original.size());
}

TEST_F(CorruptFileTest, TraceCacheCorruptSiteForcesTheMissPath)
{
    // The injected variant of the same scenario: the file on disk is
    // fine, but the trace-cache-corrupt site manufactures a Corrupt
    // verdict after the read — exercising the fallback without real
    // damage.
    TraceCache cache(dir_);
    auto workload = findWorkload("fft-simlarge");
    ASSERT_NE(workload, nullptr);
    WorkloadParams params;
    params.maxInstructions = 6000;
    params.seed = 42;
    Trace original;
    workload->generate(original, params);
    const TraceCache::Key key{"fft-simlarge", 6000, 42};
    ASSERT_TRUE(cache.store(key, original));

    auto &fi = FaultInjector::instance();
    fi.armAt(FaultSite::TraceCacheCorrupt, {1});
    Trace loaded;
    Result<void> r = cache.load(key, loaded);
    ASSERT_FALSE(r);
    EXPECT_EQ(r.code(), Errc::Corrupt);
    EXPECT_TRUE(loaded.empty());

    // Hit 2 is past the schedule: the very next load succeeds — the
    // file itself was never harmed.
    ASSERT_TRUE(cache.load(key, loaded));
    EXPECT_EQ(loaded.size(), original.size());
}

} // anonymous namespace
} // namespace cbws
