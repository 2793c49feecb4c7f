/**
 * @file
 * Unit tests for the trace substrate: record constructors, the trace
 * container and the binary on-disk format.
 */

#include <gtest/gtest.h>

#include <algorithm>
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

TEST(TraceRecordDeathTest, FactoryIsFatalOnAddressPast32Bits)
{
    // A record holds 32-bit addresses; the factories refuse, naming
    // the address, rather than truncate 2^32 to 0.
    EXPECT_EXIT(TraceRecord::load(0x400, 1ull << 32, 1),
                testing::ExitedWithCode(1), "0x100000000");
    EXPECT_EXIT(TraceRecord::alu(1ull << 32, 1),
                testing::ExitedWithCode(1), "0x100000000");
    EXPECT_EXIT(TraceRecord::branch(0x400, true, 1ull << 32),
                testing::ExitedWithCode(1), "0x100000000");
    const TraceRecord edge = TraceRecord::store(0x400, 0xffffffff, 1);
    EXPECT_EQ(edge.effAddr, 0xffffffffu);
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
    // Under 10 bytes per record (the encoding takes about 9).
    EXPECT_LT(static_cast<std::size_t>(comp_bytes), t.size() * 10);
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

    // The longest varint: with 0x01 as its 10th byte it decodes to a
    // value with bit 63 set, with 0x02 it overflows.
    for (const unsigned char tenth : {0x01, 0x02}) {
        std::string bytes(9, '\xff');
        bytes += static_cast<char>(tenth);
        const auto *p =
            reinterpret_cast<const unsigned char *>(bytes.data());
        std::uint64_t v = 0;
        const bool ok = tracecodec::readVarint(p, p + bytes.size(), v);
        if (tenth == 0x01) {
            ASSERT_TRUE(ok);
            EXPECT_EQ(v, ~0ull);
        } else {
            EXPECT_FALSE(ok);
        }
    }

    // One IntAlu record whose PC delta is that varint. With 0x01 the
    // delta decodes to -2^63 (the zigzag code 2^64 - 1), a PC no
    // 32-bit record can hold; with 0x02 it overflows. Both are
    // corrupt.
    for (const char tenth : {'\x01', '\x02'}) {
        path = writeFile("cbws_trace_overflow.bin",
                         std::string("CBT2\x01\0\0", 7) +
                             std::string(9, '\xff') + tenth +
                             std::string(4, '\0'));
        r = t.loadFrom(path);
        EXPECT_EQ(r.code(), Errc::Corrupt);
        EXPECT_TRUE(t.empty());
        std::remove(path.c_str());
    }
}

TEST(TraceFile, OutOfRangeAddressIsCorrupt)
{
    // A record holds 32-bit addresses, so a PC, memory address or
    // branch target outside [0, 2^32) is corrupt, never truncated.
    // Each image: count 1, then class, taken, zigzag PC delta,
    // src1/src2/dest, size and the operand varint.
    const std::string regs("\xff\xff\xff\x00", 4);
    const std::string edge("\xfe\xff\xff\xff\x1f", 5); // +2^32 - 1
    const std::string past("\x80\x80\x80\x80\x20", 5); // +2^32
    const struct
    {
        std::string body;
        bool loads;
    } cases[] = {
        // IntAlu PCs: 2^32 and -1 are out, 2^32 - 1 is the edge.
        {std::string("\x00\x00", 2) + past + regs, false},
        {std::string("\x00\x00\x01", 3) + regs, false},
        {std::string("\x00\x00", 2) + edge + regs, true},
        // Load at PC 0: effective address 2^32, -1, then 2^32 - 1.
        {std::string("\x03\x00\x00", 3) + regs + past, false},
        {std::string("\x03\x00\x00", 3) + regs + "\x01", false},
        {std::string("\x03\x00\x00", 3) + regs + edge, true},
        // Branch at PC 0: target 2^32, -1, then 2^32 - 1.
        {std::string("\x05\x01\x00", 3) + regs + past, false},
        {std::string("\x05\x01\x00", 3) + regs + "\x01", false},
        {std::string("\x05\x01\x00", 3) + regs + edge, true},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE("case " + std::to_string(&c - cases));
        const std::string path =
            writeFile("cbws_trace_addr.bin",
                      std::string("CBT2\x01", 5) + c.body);
        Trace t;
        t.append(TraceRecord::alu(1, 1)); // must be replaced
        Result<void> r = t.loadFrom(path);
        std::remove(path.c_str());
        if (!c.loads) {
            EXPECT_EQ(r.code(), Errc::Corrupt);
            EXPECT_TRUE(t.empty());
            continue;
        }
        ASSERT_TRUE(r.ok());
        ASSERT_EQ(t.size(), 1u);
        EXPECT_EQ(std::max<Addr>(t[0].pc, t[0].effAddr), 0xffffffffu);
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

TEST(TraceFile, OversizedBlockIdOrTakenByteIsCorrupt)
{
    // A block id is 16 bits and taken is a bool: a larger block id
    // varint would be truncated, and a taken byte of 2 would load but
    // save back as 1. The last two images are the in-range edges.
    const struct
    {
        std::string bytes;
        bool loads;
    } cases[] = {
        // BlockBegin of block 0x10005.
        {std::string("CBT2\x01\x06\x00\x00\xff\xff\xff\x00\x85\x80\x04",
                     15),
         false},
        // Branch with taken byte 2.
        {std::string("CBT2\x01\x05\x02\x00\xff\xff\xff\x00\x00", 13),
         false},
        // BlockBegin of block 0xFFFF.
        {std::string("CBT2\x01\x06\x00\x00\xff\xff\xff\x00\xff\xff\x03",
                     15),
         true},
        // Branch with taken byte 1.
        {std::string("CBT2\x01\x05\x01\x00\xff\xff\xff\x00\x00", 13),
         true},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE("case " + std::to_string(&c - cases));
        const std::string path = writeFile("cbws_trace_narrow.bin", c.bytes);
        Trace t;
        t.append(TraceRecord::alu(1, 1)); // must be replaced
        Result<void> r = t.loadFrom(path);
        if (!c.loads) {
            std::remove(path.c_str());
            EXPECT_EQ(r.code(), Errc::Corrupt);
            EXPECT_TRUE(t.empty());
            continue;
        }
        ASSERT_TRUE(r.ok());
        ASSERT_EQ(t.size(), 1u);
        EXPECT_TRUE(t[0].blockId == 0xffff || t[0].taken);
        // Saving what loaded writes the same bytes back.
        ASSERT_TRUE(t.saveTo(path));
        std::FILE *f = std::fopen(path.c_str(), "rb");
        ASSERT_NE(f, nullptr);
        std::string saved;
        EXPECT_TRUE(tracecodec::readAll(f, saved));
        std::fclose(f);
        std::remove(path.c_str());
        EXPECT_EQ(saved, c.bytes);
    }
}

} // anonymous namespace
} // namespace cbws
