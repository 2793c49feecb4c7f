/**
 * @file
 * On-disk trace cache: round-trip fidelity, stale-key rejection,
 * truncation tolerance, and the disabled-cache no-op contract. Every
 * rejection path must land as a miss with an empty output trace so
 * callers re-synthesise. Also the trace files' golden bytes and the
 * seeded mutation testing of every trace-file decoder.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <random>
#include <string>
#include <unistd.h>

#include "trace/tracecache.hh"
#include "workloads/registry.hh"

namespace cbws
{
namespace
{

/**
 * The golden trace files tests/golden/trace_small.{cbt2,cbtc} hold
 * this key's trace: stencil-default at 2,000 instructions and seed 42,
 * which has loads, stores, branches and block markers.
 */
const TraceCache::Key GoldenKey{"stencil-default", 2000, 42};

std::string
goldenPath(const char *name)
{
    return std::string(CBWS_TESTS_DIR) + "/golden/" + name;
}

Trace
generate(const TraceCache::Key &key)
{
    auto w = findWorkload(key.workload);
    EXPECT_NE(w, nullptr) << key.workload;
    WorkloadParams params;
    params.maxInstructions = key.maxInstructions;
    params.seed = key.seed;
    Trace trace;
    w->generate(trace, params);
    return trace;
}

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

std::string
readBytes(const std::string &path)
{
    std::string bytes;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    if (f) {
        EXPECT_TRUE(tracecodec::readAll(f, bytes)) << path;
        std::fclose(f);
    }
    return bytes;
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << path;
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
              bytes.size());
    std::fclose(f);
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

    // The entry ends in the same body saveTo writes after its 4-byte
    // magic, so the record count starts where that body does.
    const std::string cbt2 = dir_ + "/body.cbt";
    ASSERT_TRUE(original.saveTo(cbt2));
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
    // A record count of 2^62 as a varint.
    std::fwrite("\x80\x80\x80\x80\x80\x80\x80\x80\x40", 1, 9, f);
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

TEST_F(TraceCacheTest, OverflowingKeyVarintIsAMiss)
{
    TraceCache cache(dir_);
    const TraceCache::Key key{"fft-simlarge", 6000, 0};
    ASSERT_TRUE(cache.store(key, makeTrace()));

    // Re-spell the seed's one-byte varint 0x00 as ten bytes whose 10th
    // carries bit 64: modulo 2^64 that is 0 again, the wanted seed.
    const std::string path = cache.pathFor(key);
    std::string bytes = readBytes(path);
    // Magic, version, record size, the name's length byte and the
    // name, then the budget 6000's two varint bytes.
    const std::size_t seed_at = 12 + 1 + key.workload.size() + 2;
    ASSERT_EQ(bytes[seed_at], '\0');
    bytes.replace(seed_at, 1, std::string(9, '\x80') + '\x02');
    writeBytes(path, bytes);

    Trace loaded;
    Result<void> r = cache.load(key, loaded);
    EXPECT_EQ(r.code(), Errc::Corrupt);
    EXPECT_TRUE(loaded.empty());
    EXPECT_EQ(cache.misses(), 1u);
}

TEST_F(TraceCacheTest, CorruptedTraceCacheFileFallsBackToResynthesis)
{
    // A cache hit turns out to be damaged: the load reports Corrupt
    // (not a crash), the caller re-synthesises, and a re-store
    // repairs the cache. Truncation is the damage the format always
    // detects (the body carries no checksum, so mid-payload bit flips
    // can slip through: a trade-off of the compact binary format).
    TraceCache cache(dir_);
    const TraceCache::Key key{"fft-simlarge", 6000, 42};
    const Trace original = makeTrace();
    ASSERT_TRUE(cache.store(key, original));
    const std::string path = cache.pathFor(key);
    std::filesystem::resize_file(path,
                                 std::filesystem::file_size(path) / 2);

    Trace loaded;
    Result<void> r = cache.load(key, loaded);
    ASSERT_FALSE(r);
    EXPECT_EQ(r.code(), Errc::Corrupt);
    EXPECT_TRUE(loaded.empty()) << "failed load must leave no data";

    // Re-synthesise and repair, as runMatrix does on any miss.
    ASSERT_TRUE(cache.store(key, makeTrace()));
    ASSERT_TRUE(cache.load(key, loaded));
    EXPECT_TRUE(tracesEqual(original, loaded));
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

TEST_F(TraceCacheTest, WritersReproduceGoldenBytes)
{
    const Trace trace = generate(GoldenKey);
    // Every operand encoding occurs in the pinned bytes.
    for (InstClass cls : {InstClass::Load, InstClass::Store,
                          InstClass::Branch, InstClass::BlockBegin,
                          InstClass::BlockEnd})
        ASSERT_GT(trace.countClass(cls), 0u) << static_cast<int>(cls);

    const std::string cbt2 = dir_ + "/trace.cbt2";
    ASSERT_TRUE(trace.saveTo(cbt2));
    const std::string want2 = readBytes(goldenPath("trace_small.cbt2"));
    const std::string got2 = readBytes(cbt2);
    EXPECT_EQ(got2.size(), want2.size());
    EXPECT_TRUE(got2 == want2) << "saveTo changed the CBT2 bytes";

    TraceCache cache(dir_);
    ASSERT_TRUE(cache.store(GoldenKey, trace));
    const std::string wantc = readBytes(goldenPath("trace_small.cbtc"));
    const std::string gotc = readBytes(cache.pathFor(GoldenKey));
    EXPECT_EQ(gotc.size(), wantc.size());
    EXPECT_TRUE(gotc == wantc) << "TraceCache::store changed the CBTC bytes";
}

TEST_F(TraceCacheTest, ReadersRecoverGoldenRecords)
{
    const Trace trace = generate(GoldenKey);

    Trace from_cbt2;
    ASSERT_TRUE(from_cbt2.loadFrom(goldenPath("trace_small.cbt2")));
    EXPECT_TRUE(tracesEqual(from_cbt2, trace));

    // Serve the golden entry from a cache directory under its own name.
    TraceCache cache(dir_);
    writeBytes(cache.pathFor(GoldenKey),
               readBytes(goldenPath("trace_small.cbtc")));
    Trace from_cbtc;
    ASSERT_TRUE(cache.load(GoldenKey, from_cbtc));
    EXPECT_TRUE(tracesEqual(from_cbtc, trace));
}

/** The seeded mutation test: the kernels whose CBT2 and CBTC images
 *  it mutates, their budget and the mutants per image. */
constexpr const char *MutantKernels[] = {"stencil-default",
                                         "fft-simlarge", "nw"};
constexpr std::uint64_t MutantInsts = 1500;
constexpr int MutantsPerImage = 400;

/** The smallest encoded record (CBT2's 7 bytes): no successful load
 *  may hold more records than this allows. */
constexpr std::size_t MinRecordBytes = 7;

/** Head of an image where the magic, header and record count live. */
constexpr std::size_t HeaderBytes = 40;

/** Apply one to three seeded edits to @p bytes. */
void
mutate(std::string &bytes, std::mt19937_64 &rng)
{
    const int edits = 1 + static_cast<int>(rng() % 3);
    for (int e = 0; e < edits && !bytes.empty(); ++e) {
        const std::size_t span = rng() % 2 == 0
            ? std::min(bytes.size(), HeaderBytes)
            : bytes.size();
        const std::size_t pos = rng() % span;
        switch (rng() % 4) {
          case 0:
            bytes[pos] = static_cast<char>(bytes[pos] ^ (1 << (rng() % 8)));
            break;
          case 1:
            bytes[pos] = static_cast<char>(rng());
            break;
          case 2:
            bytes.resize(pos);
            break;
          default:
            for (std::size_t k = 1 + rng() % 4; k > 0; --k)
                bytes.insert(bytes.begin() + pos, static_cast<char>(rng()));
            break;
        }
    }
}

/** A load's outcome must be a bounded trace or an empty Corrupt one. */
void
checkOutcome(const Result<void> &r, const Trace &trace,
             std::size_t file_bytes, const std::string &what)
{
    if (r.ok()) {
        EXPECT_LE(trace.records().capacity(), file_bytes / MinRecordBytes)
            << what;
    } else {
        EXPECT_EQ(r.code(), Errc::Corrupt) << what;
        EXPECT_TRUE(trace.empty()) << what;
    }
}

/**
 * Seeded mutants of the CBT2 and CBTC images of three kernels
 * (bit flips, byte overwrites, truncations, insertions, biased toward
 * the headers and record counts): every load returns a trace whose
 * allocation the file size bounds, or Corrupt and an empty trace.
 * Under ASan/UBSan this is the fuzzing of the trace-file decoders.
 */
TEST_F(TraceCacheTest, SeededMutantsLoadOrAreCorrupt)
{
    std::mt19937_64 rng(42);
    int loaded = 0;
    int rejected = 0;
    for (const char *kernel : MutantKernels) {
        const TraceCache::Key key{kernel, MutantInsts, 42};
        const Trace trace = generate(key);

        const std::string cbt2 = dir_ + "/trace.cbt2";
        ASSERT_TRUE(trace.saveTo(cbt2));
        const TraceCache cache(dir_);
        ASSERT_TRUE(cache.store(key, trace));
        const std::string entry = cache.pathFor(key);

        for (const std::string &path : {cbt2, entry}) {
            const std::string image = readBytes(path);
            for (int m = 0; m < MutantsPerImage; ++m) {
                std::string bytes = image;
                mutate(bytes, rng);
                writeBytes(path, bytes);
                const std::string what = std::string(kernel) + " " +
                                         path + " mutant " +
                                         std::to_string(m);
                Trace out;
                out.append(TraceRecord::alu(1, 1)); // must be replaced
                const Result<void> r = path == entry
                    ? cache.load(key, out)
                    : out.loadFrom(path);
                checkOutcome(r, out, bytes.size(), what);
                ++(r.ok() ? loaded : rejected);
            }
        }
    }
    // Both outcomes occur: the mutants reach past the header checks.
    EXPECT_GT(loaded, 0);
    EXPECT_GT(rejected, 0);
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

} // anonymous namespace
} // namespace cbws
