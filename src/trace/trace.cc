#include "trace/trace.hh"

#include <cstdio>
#include <cstring>
#include <limits>

#include "base/logging.hh"

namespace cbws
{

/*
 * The trace file format (docs/FORMATS.md points here).
 *
 * CBT2: "CBT2", then the body tracecodec::encodeBody writes: a varint
 * record count, then per record the class byte, the taken byte
 * (0/1), a zigzag varint PC delta from the previous record, the
 * src1/src2/dest/size bytes, and one operand varint: the zigzag
 * effective-address delta from the previous memory record (Load,
 * Store), the zigzag target - PC (Branch) or the block id (block
 * markers); other classes have none. A varint carries 7 bits per
 * byte, low group first, with the top bit set on every byte but the
 * last; it is at most 10 bytes long and its 10th byte is at most
 * 0x01. A longer or larger varint, a count the remaining bytes cannot
 * hold at MinEncodedRecordBytes each, or a body that ends mid-record
 * is corrupt. Bytes after the last record are ignored.
 *
 * A record whose class lies past InstClass::Nop, whose taken byte is
 * neither 0 nor 1, whose src1/src2/dest byte is neither below
 * NumArchRegs nor InvalidReg, whose PC, memory address or branch
 * target falls outside [0, 2^32) (a TraceRecord holds 32-bit
 * addresses) or whose block id exceeds 0xFFFF makes the file
 * corrupt.
 */

namespace
{

constexpr char TraceMagic[4] = {'C', 'B', 'T', '2'};

/** Smallest encoded CBT2 record: class, taken, a one-byte PC delta
 *  varint and the four register/size bytes. */
constexpr std::uint64_t MinEncodedRecordBytes = 7;

/** Zigzag encoding maps small signed deltas to small varints. */
std::uint64_t
zigzag(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

std::int64_t
unzigzag(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
}

/**
 * @p base plus the zigzag-encoded delta @p v into @p out; false when
 * the sum falls outside the TraceAddr range. The sum is taken modulo
 * 2^64, which is exact here: with |delta| <= 2^63, only a true sum
 * in [0, 2^32) lands there.
 */
bool
addDelta(TraceAddr base, std::uint64_t v, TraceAddr &out)
{
    const Addr sum = base + static_cast<Addr>(unzigzag(v));
    if (sum > std::numeric_limits<TraceAddr>::max())
        return false;
    out = static_cast<TraceAddr>(sum);
    return true;
}

/** A register byte the core can rename: an architectural register
 *  or InvalidReg. */
bool
validReg(RegIndex reg)
{
    return reg < NumArchRegs || reg == InvalidReg;
}

/** Whether a loaded record's class and register bytes are in range;
 *  the core indexes its rename table by the registers. */
bool
validRecord(const TraceRecord &r)
{
    return r.cls <= InstClass::Nop && validReg(r.src1) &&
           validReg(r.src2) && validReg(r.dest);
}

} // anonymous namespace

std::size_t
Trace::countClass(InstClass cls) const
{
    std::size_t n = 0;
    for (const auto &r : records_)
        if (r.cls == cls)
            ++n;
    return n;
}

std::string
Trace::validate() const
{
    bool in_block = false;
    BlockId open_id = 0;
    for (std::size_t i = 0; i < records_.size(); ++i) {
        const TraceRecord &r = records_[i];
        switch (r.cls) {
          case InstClass::BlockBegin:
            if (in_block) {
                return vformat("record %zu: nested BLOCK_BEGIN",
                               i);
            }
            in_block = true;
            open_id = r.blockId;
            break;
          case InstClass::BlockEnd:
            if (!in_block) {
                return vformat("record %zu: unmatched BLOCK_END",
                               i);
            }
            if (r.blockId != open_id) {
                return vformat(
                    "record %zu: BLOCK_END id %u does not match "
                    "BLOCK_BEGIN id %u",
                    i, r.blockId, open_id);
            }
            in_block = false;
            break;
          case InstClass::Load:
          case InstClass::Store:
            if (r.effAddr == 0)
                return vformat("record %zu: memory access to 0", i);
            break;
          default:
            break;
        }
    }
    // A trailing open block is legal (budget may cut generation
    // mid-iteration).
    return std::string();
}

namespace tracecodec
{

namespace
{

/** Longest varint: 64 bits at 7 bits per byte. */
constexpr std::size_t MaxVarintBytes = 10;

/** Longest encoded CBT2 record: class, taken, the four
 *  register/size bytes and two varints (PC delta and operand). */
constexpr std::size_t MaxEncodedRecordBytes = 6 + 2 * MaxVarintBytes;

/** Write @p v as a varint at @p p; one past its last byte. */
unsigned char *
encodeVarint(unsigned char *p, std::uint64_t v)
{
    while (v >= 0x80) {
        *p++ = static_cast<unsigned char>((v & 0x7f) | 0x80);
        v >>= 7;
    }
    *p++ = static_cast<unsigned char>(v);
    return p;
}

} // anonymous namespace

void
appendVarint(std::string &out, std::uint64_t v)
{
    unsigned char buf[MaxVarintBytes];
    out.append(reinterpret_cast<const char *>(buf),
               encodeVarint(buf, v) - buf);
}

bool
readVarint(const unsigned char *&p, const unsigned char *end,
           std::uint64_t &v)
{
    v = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
        if (p == end)
            return false;
        const unsigned c = *p++;
        // The 10th byte carries bit 63 alone.
        if (shift == 63 && c > 0x01)
            return false;
        v |= static_cast<std::uint64_t>(c & 0x7f) << shift;
        if (!(c & 0x80))
            return true;
    }
    return false;
}

void
encodeBody(const std::vector<TraceRecord> &records, std::string &out)
{
    const std::size_t start = out.size();
    out.resize(start + MaxVarintBytes +
               records.size() * MaxEncodedRecordBytes);
    unsigned char *const base =
        reinterpret_cast<unsigned char *>(&out[0]);
    unsigned char *p = encodeVarint(base + start, records.size());
    Addr prev_pc = 0;
    Addr prev_addr = 0;
    for (const auto &r : records) {
        *p++ = static_cast<unsigned char>(r.cls);
        *p++ = r.taken ? 1 : 0;
        p = encodeVarint(p, zigzag(static_cast<std::int64_t>(r.pc) -
                                   static_cast<std::int64_t>(prev_pc)));
        prev_pc = r.pc;
        *p++ = r.src1;
        *p++ = r.src2;
        *p++ = r.dest;
        *p++ = r.size;
        if (isMemory(r.cls)) {
            p = encodeVarint(
                p, zigzag(static_cast<std::int64_t>(r.effAddr) -
                          static_cast<std::int64_t>(prev_addr)));
            prev_addr = r.effAddr;
        } else if (r.cls == InstClass::Branch) {
            p = encodeVarint(
                p, zigzag(static_cast<std::int64_t>(r.effAddr) -
                          static_cast<std::int64_t>(r.pc)));
        } else if (isBlockMarker(r.cls)) {
            p = encodeVarint(p, r.blockId);
        }
    }
    out.resize(p - base);
}

bool
decodeBody(const unsigned char *p, std::size_t n,
           std::vector<TraceRecord> &records)
{
    const unsigned char *const end = p + n;
    std::uint64_t count = 0;
    // A count the rest of the bytes cannot hold is corrupt; trusting
    // it would let one flipped byte demand an impossible allocation.
    if (!readVarint(p, end, count) ||
        count > static_cast<std::uint64_t>(end - p) /
                    MinEncodedRecordBytes)
        return false;
    records.clear();
    records.reserve(count);
    TraceAddr prev_pc = 0;
    TraceAddr prev_addr = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
        TraceRecord r;
        if (end - p < 2 || p[1] > 1)
            return false;
        r.cls = static_cast<InstClass>(p[0]);
        r.taken = p[1] != 0;
        p += 2;
        std::uint64_t v;
        if (!readVarint(p, end, v) || !addDelta(prev_pc, v, r.pc))
            return false;
        prev_pc = r.pc;
        if (end - p < 4)
            return false;
        r.src1 = p[0];
        r.src2 = p[1];
        r.dest = p[2];
        r.size = p[3];
        p += 4;
        if (isMemory(r.cls)) {
            if (!readVarint(p, end, v) ||
                !addDelta(prev_addr, v, r.effAddr))
                return false;
            prev_addr = r.effAddr;
        } else if (r.cls == InstClass::Branch) {
            if (!readVarint(p, end, v) || !addDelta(r.pc, v, r.effAddr))
                return false;
        } else if (isBlockMarker(r.cls)) {
            if (!readVarint(p, end, v) ||
                v > std::numeric_limits<BlockId>::max())
                return false;
            r.blockId = static_cast<BlockId>(v);
        }
        if (!validRecord(r))
            return false;
        records.push_back(r);
    }
    return true;
}

bool
readAll(std::FILE *f, std::string &bytes)
{
    bytes.clear();
    if (std::fseek(f, 0, SEEK_END) != 0)
        return false;
    const long size = std::ftell(f);
    if (size < 0 || std::fseek(f, 0, SEEK_SET) != 0)
        return false;
    bytes.resize(static_cast<std::size_t>(size));
    return bytes.empty() ||
           std::fread(&bytes[0], 1, bytes.size(), f) == bytes.size();
}

} // namespace tracecodec

Result<void>
Trace::saveTo(const std::string &path) const
{
    std::string bytes(TraceMagic, sizeof(TraceMagic));
    tracecodec::encodeBody(records_, bytes);
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return Error(Errc::IoError,
                     path + ": cannot open for writing");
    bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) ==
              bytes.size();
    ok = std::fclose(f) == 0 && ok;
    if (!ok)
        return Error(Errc::IoError, path + ": short write");
    return Result<void>();
}

Result<void>
Trace::loadFrom(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return Error(Errc::IoError,
                     path + ": cannot open for reading");
    std::string bytes;
    bool ok = tracecodec::readAll(f, bytes);
    std::fclose(f);
    const auto *p = reinterpret_cast<const unsigned char *>(bytes.data());
    const std::size_t n = bytes.size();
    ok = ok && n >= sizeof(TraceMagic) &&
         std::memcmp(p, TraceMagic, sizeof(TraceMagic)) == 0 &&
         tracecodec::decodeBody(p + sizeof(TraceMagic),
                                n - sizeof(TraceMagic), records_);
    if (!ok) {
        records_.clear();
        return Error(Errc::Corrupt,
                     path + ": corrupt or incompatible trace file");
    }
    return Result<void>();
}

} // namespace cbws
