/**
 * @file
 * Unit tests for the trace substrate: record constructors, the trace
 * container and the binary on-disk format.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "trace/trace.hh"

namespace cbws
{
namespace
{

TEST(TraceRecord, Factories)
{
    const TraceRecord a = TraceRecord::alu(0x400, 3, 1, 2);
    EXPECT_EQ(a.cls, InstClass::IntAlu);
    EXPECT_EQ(a.pc, 0x400u);
    EXPECT_EQ(a.dest, 3);
    EXPECT_EQ(a.src1, 1);
    EXPECT_EQ(a.src2, 2);

    const TraceRecord l = TraceRecord::load(0x404, 0x10040, 5, 1, 4);
    EXPECT_EQ(l.cls, InstClass::Load);
    EXPECT_EQ(l.effAddr, 0x10040u);
    EXPECT_EQ(l.size, 4);
    EXPECT_EQ(l.line(), lineOf(0x10040));
    EXPECT_TRUE(isMemory(l.cls));

    const TraceRecord s = TraceRecord::store(0x408, 0x10080, 5, 2);
    EXPECT_EQ(s.cls, InstClass::Store);
    EXPECT_EQ(s.src1, 5);
    EXPECT_EQ(s.src2, 2);
    EXPECT_TRUE(isMemory(s.cls));

    const TraceRecord b = TraceRecord::branch(0x40c, true, 0x400, 6);
    EXPECT_EQ(b.cls, InstClass::Branch);
    EXPECT_TRUE(b.taken);
    EXPECT_EQ(b.effAddr, 0x400u);
    EXPECT_FALSE(isMemory(b.cls));

    const TraceRecord bb = TraceRecord::blockBegin(0x410, 7);
    EXPECT_EQ(bb.cls, InstClass::BlockBegin);
    EXPECT_EQ(bb.blockId, 7);
    EXPECT_TRUE(isBlockMarker(bb.cls));
    EXPECT_TRUE(isBlockMarker(InstClass::BlockEnd));
    EXPECT_FALSE(isBlockMarker(InstClass::Load));
}

TEST(TraceRecord, IsCompact)
{
    // Multi-million-record traces rely on the record staying small.
    EXPECT_LE(sizeof(TraceRecord), 32u);
}

TEST(Trace, AppendAndIterate)
{
    Trace t;
    EXPECT_TRUE(t.empty());
    t.append(TraceRecord::alu(0x400, 1));
    t.append(TraceRecord::load(0x404, 0x1000, 2, 1));
    t.append(TraceRecord::blockBegin(0x408, 0));
    EXPECT_EQ(t.size(), 3u);
    EXPECT_EQ(t[1].cls, InstClass::Load);
    std::size_t n = 0;
    for (const auto &rec : t) {
        (void)rec;
        ++n;
    }
    EXPECT_EQ(n, 3u);
}

TEST(Trace, CountClass)
{
    Trace t;
    for (int i = 0; i < 5; ++i)
        t.append(TraceRecord::load(0x400, 0x1000 + i * 64, 1));
    for (int i = 0; i < 3; ++i)
        t.append(TraceRecord::alu(0x404, 1));
    EXPECT_EQ(t.countClass(InstClass::Load), 5u);
    EXPECT_EQ(t.countClass(InstClass::IntAlu), 3u);
    EXPECT_EQ(t.countClass(InstClass::Store), 0u);
}

TEST(TraceFile, RoundTrip)
{
    Trace t;
    for (int i = 0; i < 100; ++i) {
        t.append(TraceRecord::load(0x400 + i * 4, 0x10000 + i * 64,
                                   static_cast<RegIndex>(i % 32), 1));
        t.append(TraceRecord::branch(0x800 + i * 4, i % 2 == 0,
                                     0x400, 2));
    }
    const std::string path = testing::TempDir() + "cbws_trace_rt.bin";
    ASSERT_TRUE(t.saveTo(path));

    Trace loaded;
    ASSERT_TRUE(loaded.loadFrom(path));
    ASSERT_EQ(loaded.size(), t.size());
    for (std::size_t i = 0; i < t.size(); ++i) {
        EXPECT_EQ(loaded[i].pc, t[i].pc);
        EXPECT_EQ(loaded[i].effAddr, t[i].effAddr);
        EXPECT_EQ(loaded[i].cls, t[i].cls);
        EXPECT_EQ(loaded[i].taken, t[i].taken);
    }
    std::remove(path.c_str());
}

TEST(TraceFile, EmptyTraceRoundTrip)
{
    Trace t;
    const std::string path = testing::TempDir() + "cbws_trace_mt.bin";
    ASSERT_TRUE(t.saveTo(path));
    Trace loaded;
    loaded.append(TraceRecord::alu(1, 1)); // should be cleared
    ASSERT_TRUE(loaded.loadFrom(path));
    EXPECT_TRUE(loaded.empty());
    std::remove(path.c_str());
}

TEST(TraceFile, CompressedRoundTrip)
{
    Trace t;
    Addr addr = 0x1000000;
    for (int i = 0; i < 500; ++i) {
        t.append(TraceRecord::blockBegin(0x400000, 5));
        t.append(TraceRecord::load(0x400004, addr, 3, 1, 4));
        addr += 72;
        t.append(TraceRecord::store(0x400008, addr + 9999, 3, 1));
        t.append(TraceRecord::branch(0x40000c, i % 3 != 0,
                                     0x400000, 2));
        t.append(TraceRecord::blockEnd(0x400010, 5));
    }
    const std::string path =
        testing::TempDir() + "cbws_trace_c.bin";
    ASSERT_TRUE(t.saveTo(path));

    Trace loaded;
    ASSERT_TRUE(loaded.loadFrom(path));
    ASSERT_EQ(loaded.size(), t.size());
    for (std::size_t i = 0; i < t.size(); ++i) {
        EXPECT_EQ(loaded[i].pc, t[i].pc) << i;
        EXPECT_EQ(loaded[i].effAddr, t[i].effAddr) << i;
        EXPECT_EQ(loaded[i].cls, t[i].cls) << i;
        EXPECT_EQ(loaded[i].taken, t[i].taken) << i;
        EXPECT_EQ(loaded[i].src1, t[i].src1) << i;
        EXPECT_EQ(loaded[i].dest, t[i].dest) << i;
        EXPECT_EQ(loaded[i].size, t[i].size) << i;
        EXPECT_EQ(loaded[i].blockId, t[i].blockId) << i;
    }
    std::remove(path.c_str());
}

TEST(TraceFile, CompressedIsSmaller)
{
    Trace t;
    for (int i = 0; i < 2000; ++i)
        t.append(TraceRecord::load(0x400000 + (i % 4) * 4,
                                   0x1000000 + i * 64ull, 3, 1));
    const std::string comp = testing::TempDir() + "cbws_comp.bin";
    ASSERT_TRUE(t.saveTo(comp));
    std::FILE *f = std::fopen(comp.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    const long comp_bytes = std::ftell(f);
    std::fclose(f);
    // Under half the bytes of the in-memory records.
    EXPECT_LT(static_cast<std::size_t>(comp_bytes) * 2,
              t.size() * sizeof(TraceRecord));
    std::remove(comp.c_str());
}

TEST(TraceFile, MissingFileFails)
{
    Trace t;
    EXPECT_FALSE(t.loadFrom("/nonexistent/dir/file.bin"));
}

TEST(TraceFile, CorruptMagicRejected)
{
    const std::string path = testing::TempDir() + "cbws_trace_bad.bin";
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite("JUNKJUNKJUNKJUNK", 1, 16, f);
    std::fclose(f);
    Trace t;
    EXPECT_FALSE(t.loadFrom(path));
    EXPECT_TRUE(t.empty());
    std::remove(path.c_str());
}

/** Write @p bytes to a fresh temp file named @p name; its path. */
std::string
writeFile(const char *name, const std::string &bytes)
{
    const std::string path = testing::TempDir() + name;
    std::FILE *f = std::fopen(path.c_str(), "wb");
    EXPECT_NE(f, nullptr);
    std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
    return path;
}

TEST(TraceFile, CompressedCountBeyondFileIsCorrupt)
{
    // A CBT2 record takes at least 7 bytes, so a count the rest of
    // the file cannot hold is corrupt rather than an allocation.
    // 13 bytes: the magic and a record count of 2^62 as a varint.
    const std::string huge("CBT2\x80\x80\x80\x80\x80\x80\x80\x80\x40",
                           13);

    // Two minimal (IntAlu, all-zero) records' bytes claimed as three.
    const std::string two_records(14, '\0');
    const std::string short_body = std::string("CBT2\x03", 5) + two_records;

    for (const std::string &bytes : {huge, short_body}) {
        const std::string path = writeFile("cbws_trace_count.bin", bytes);
        Trace t;
        t.append(TraceRecord::alu(1, 1)); // must be cleared
        Result<void> r = t.loadFrom(path);
        EXPECT_EQ(r.code(), Errc::Corrupt);
        EXPECT_TRUE(t.empty());
        std::remove(path.c_str());
    }

    // The same bytes claimed as two load: the bound is exact.
    const std::string path = writeFile(
        "cbws_trace_count.bin", std::string("CBT2\x02", 5) + two_records);
    Trace t;
    ASSERT_TRUE(t.loadFrom(path));
    EXPECT_EQ(t.size(), 2u);
    std::remove(path.c_str());
}

TEST(TraceFile, OverflowingVarintIsCorrupt)
{
    // The count varint's 10th byte holds bit 63 alone, so 0x02 there
    // overflows 64 bits; dropping the bit would read a count of 0.
    std::string path = writeFile(
        "cbws_trace_overflow.bin",
        std::string("CBT2\x80\x80\x80\x80\x80\x80\x80\x80\x80\x02",
                    14));
    Trace t;
    t.append(TraceRecord::alu(1, 1)); // must be cleared
    Result<void> r = t.loadFrom(path);
    EXPECT_EQ(r.code(), Errc::Corrupt);
    EXPECT_TRUE(t.empty());
    std::remove(path.c_str());

    // One IntAlu record whose PC delta is the longest varint: with
    // 0x01 as its 10th byte it decodes, with 0x02 it overflows.
    for (const char tenth : {'\x01', '\x02'}) {
        path = writeFile("cbws_trace_overflow.bin",
                         std::string("CBT2\x01\0\0", 7) +
                             std::string(9, '\xff') + tenth +
                             std::string(4, '\0'));
        r = t.loadFrom(path);
        if (tenth == '\x01') {
            ASSERT_TRUE(r.ok());
            ASSERT_EQ(t.size(), 1u);
            EXPECT_EQ(t[0].pc, 1ull << 63); // zigzag(-2^63) = 2^64 - 1
        } else {
            EXPECT_EQ(r.code(), Errc::Corrupt);
        }
        std::remove(path.c_str());
    }
}

TEST(TraceFile, OutOfRangeRegisterOrClassIsCorrupt)
{
    // One record per image, {class, src1, dest, loads}: the core's
    // rename table has NumArchRegs entries, and InstClass ends at
    // Nop (8). The last two cases are the in-range edges.
    const std::uint8_t cases[][4] = {{0, InvalidReg, 200, 0},
                                     {0, 64, InvalidReg, 0},
                                     {9, 0, 0, 0},
                                     {8, 63, 63, 1},
                                     {0, InvalidReg, InvalidReg, 1}};
    for (const auto &c : cases) {
        // CBT2: count 1, then class, taken, PC delta +1, src1, src2,
        // dest, size.
        const char cbt2[] = {'C', 'B', 'T', '2', 1,
                             static_cast<char>(c[0]), 0, 2,
                             static_cast<char>(c[1]),
                             static_cast<char>(InvalidReg),
                             static_cast<char>(c[2]), 0};
        SCOPED_TRACE("case " + std::to_string(&c - cases));
        const std::string path = writeFile(
            "cbws_trace_range.bin", std::string(cbt2, sizeof(cbt2)));
        Trace t;
        t.append(TraceRecord::alu(1, 1)); // must be replaced
        Result<void> r = t.loadFrom(path);
        std::remove(path.c_str());
        if (!c[3]) {
            EXPECT_EQ(r.code(), Errc::Corrupt);
            EXPECT_TRUE(t.empty());
            continue;
        }
        ASSERT_TRUE(r.ok());
        ASSERT_EQ(t.size(), 1u);
        EXPECT_EQ(t[0].cls, static_cast<InstClass>(c[0]));
        EXPECT_EQ(t[0].src1, c[1]);
        EXPECT_EQ(t[0].dest, c[2]);
    }
}

} // anonymous namespace
} // namespace cbws
