/**
 * @file
 * On-disk trace cache: round-trip fidelity, stale-key rejection,
 * truncation tolerance, and the disabled-cache no-op contract. Every
 * rejection path must land as a miss with an empty output trace so
 * callers re-synthesise.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unistd.h>

#include "trace/tracecache.hh"
#include "workloads/registry.hh"

namespace cbws
{
namespace
{

/** Fresh cache directory per test, removed on teardown. */
class TraceCacheTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        char tmpl[] = "/tmp/cbws-tracecache-XXXXXX";
        ASSERT_NE(::mkdtemp(tmpl), nullptr);
        dir_ = tmpl;
    }

    void
    TearDown() override
    {
        const std::string cmd = "rm -rf '" + dir_ + "'";
        if (std::system(cmd.c_str()) != 0)
            ADD_FAILURE() << "cleanup failed: " << cmd;
    }

    Trace
    makeTrace(std::uint64_t insts = 6000, std::uint64_t seed = 42)
    {
        auto w = findWorkload("fft-simlarge");
        EXPECT_NE(w, nullptr);
        WorkloadParams params;
        params.maxInstructions = insts;
        params.seed = seed;
        Trace trace;
        trace.reserve(insts + 512);
        w->generate(trace, params);
        EXPECT_FALSE(trace.empty());
        return trace;
    }

    std::string dir_;
};

bool
tracesEqual(const Trace &a, const Trace &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.records().data(), b.records().data(),
                        a.size() * sizeof(TraceRecord)) == 0);
}

TEST_F(TraceCacheTest, RoundTripIsBitExact)
{
    TraceCache cache(dir_);
    const TraceCache::Key key{"fft-simlarge", 6000, 42};
    const Trace original = makeTrace();

    Trace missed;
    EXPECT_FALSE(cache.load(key, missed)) << "cold cache must miss";
    EXPECT_TRUE(missed.empty());
    EXPECT_EQ(cache.misses(), 1u);

    ASSERT_TRUE(cache.store(key, original));
    Trace loaded;
    ASSERT_TRUE(cache.load(key, loaded));
    EXPECT_TRUE(tracesEqual(original, loaded));
    EXPECT_EQ(cache.hits(), 1u);
}

TEST_F(TraceCacheTest, DistinctKeysGetDistinctFiles)
{
    TraceCache cache(dir_);
    const TraceCache::Key a{"fft-simlarge", 6000, 42};
    const TraceCache::Key b{"fft-simlarge", 9000, 42};
    const TraceCache::Key c{"fft-simlarge", 6000, 7};
    EXPECT_NE(cache.pathFor(a), cache.pathFor(b));
    EXPECT_NE(cache.pathFor(a), cache.pathFor(c));

    ASSERT_TRUE(cache.store(a, makeTrace(6000)));
    Trace loaded;
    EXPECT_FALSE(cache.load(b, loaded)) << "different budget";
    EXPECT_FALSE(cache.load(c, loaded)) << "different seed";
}

TEST_F(TraceCacheTest, StaleEmbeddedKeyIsRejected)
{
    TraceCache cache(dir_);
    const TraceCache::Key real{"fft-simlarge", 6000, 42};
    const TraceCache::Key wanted{"fft-simlarge", 6000, 43};
    ASSERT_TRUE(cache.store(real, makeTrace()));

    // Simulate a renamed / copied cache file: the payload carries
    // key `real` but sits at `wanted`'s path.
    ASSERT_EQ(std::rename(cache.pathFor(real).c_str(),
                          cache.pathFor(wanted).c_str()),
              0);
    Trace loaded;
    EXPECT_FALSE(cache.load(wanted, loaded));
    EXPECT_TRUE(loaded.empty());
}

TEST_F(TraceCacheTest, TruncatedFileIsAMiss)
{
    TraceCache cache(dir_);
    const TraceCache::Key key{"fft-simlarge", 6000, 42};
    ASSERT_TRUE(cache.store(key, makeTrace()));
    const std::string path = cache.pathFor(key);

    // Chop the file roughly in half — mid-body corruption.
    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    const long full = std::ftell(f);
    std::fclose(f);
    ASSERT_GT(full, 32);
    ASSERT_EQ(::truncate(path.c_str(), full / 2), 0);

    Trace loaded;
    EXPECT_FALSE(cache.load(key, loaded));
    EXPECT_TRUE(loaded.empty());
    EXPECT_GE(cache.misses(), 1u);
}

TEST_F(TraceCacheTest, CorruptMagicIsAMiss)
{
    TraceCache cache(dir_);
    const TraceCache::Key key{"fft-simlarge", 6000, 42};
    ASSERT_TRUE(cache.store(key, makeTrace()));

    std::FILE *f = std::fopen(cache.pathFor(key).c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fputs("XXXX", f);
    std::fclose(f);

    Trace loaded;
    EXPECT_FALSE(cache.load(key, loaded));
}

TEST_F(TraceCacheTest, CorruptRecordCountIsAMissUntilRestored)
{
    TraceCache cache(dir_);
    const TraceCache::Key key{"fft-simlarge", 6000, 42};
    const Trace original = makeTrace();
    ASSERT_TRUE(cache.store(key, original));

    // The entry ends in the same body saveCompressed writes after its
    // 4-byte magic, so the record count starts where that body does.
    const std::string cbt2 = dir_ + "/body.cbt";
    ASSERT_TRUE(original.saveCompressed(cbt2));
    auto size_of = [](const std::string &p) {
        std::FILE *f = std::fopen(p.c_str(), "rb");
        std::fseek(f, 0, SEEK_END);
        const long n = std::ftell(f);
        std::fclose(f);
        return n;
    };
    const long body_at = size_of(cache.pathFor(key)) - (size_of(cbt2) - 4);
    ASSERT_GT(body_at, 0);

    std::FILE *f = std::fopen(cache.pathFor(key).c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, body_at, SEEK_SET);
    tracecodec::putVarint(f, 1ull << 62);
    std::fclose(f);

    Trace loaded;
    Result<void> r = cache.load(key, loaded);
    EXPECT_EQ(r.code(), Errc::Corrupt);
    EXPECT_TRUE(loaded.empty());
    EXPECT_EQ(cache.misses(), 1u);

    // Re-synthesis stores a good entry, which then hits.
    ASSERT_TRUE(cache.store(key, original));
    ASSERT_TRUE(cache.load(key, loaded));
    EXPECT_TRUE(tracesEqual(original, loaded));
    EXPECT_EQ(cache.hits(), 1u);
}

TEST_F(TraceCacheTest, StoreThenLoadOverwrites)
{
    TraceCache cache(dir_);
    const TraceCache::Key key{"fft-simlarge", 6000, 42};
    const Trace first = makeTrace(6000, 42);
    const Trace second = makeTrace(6000, 9);
    ASSERT_FALSE(tracesEqual(first, second));

    ASSERT_TRUE(cache.store(key, first));
    ASSERT_TRUE(cache.store(key, second)); // atomic replace
    Trace loaded;
    ASSERT_TRUE(cache.load(key, loaded));
    EXPECT_TRUE(tracesEqual(second, loaded));
}

TEST(TraceCacheDisabled, EverythingIsANoOp)
{
    TraceCache cache;
    EXPECT_FALSE(cache.enabled());
    const TraceCache::Key key{"fft-simlarge", 6000, 42};
    EXPECT_TRUE(cache.pathFor(key).empty());

    Trace trace;
    trace.append(TraceRecord{});
    EXPECT_FALSE(cache.store(key, trace));
    Trace loaded;
    loaded.append(TraceRecord{});
    EXPECT_FALSE(cache.load(key, loaded));
    EXPECT_TRUE(loaded.empty()) << "load() clears its output";
}

TEST(TraceCacheEnv, FromEnvHonoursDisableSpellings)
{
    for (const char *off : {"", "0", "off"}) {
        ::setenv("CBWS_TRACE_CACHE", off, 1);
        EXPECT_FALSE(TraceCache::fromEnv().enabled()) << off;
    }
    ::setenv("CBWS_TRACE_CACHE", "/tmp/cbws-cache-env-test", 1);
    TraceCache cache = TraceCache::fromEnv();
    EXPECT_TRUE(cache.enabled());
    EXPECT_EQ(cache.directory(), "/tmp/cbws-cache-env-test");
    ::unsetenv("CBWS_TRACE_CACHE");
    EXPECT_FALSE(TraceCache::fromEnv().enabled());
}

} // anonymous namespace
} // namespace cbws
