#include "trace/trace.hh"

#include <cstdio>
#include <cstring>

#include "base/logging.hh"
#include "base/profiler.hh"
#include "trace/decoded.hh"

namespace cbws
{

namespace
{

/** On-disk header for the CBT1 trace format. */
struct TraceFileHeader
{
    char magic[4];           // "CBT1"
    std::uint32_t recordSize;
    std::uint64_t numRecords;
};

constexpr char TraceMagic[4] = {'C', 'B', 'T', '1'};
constexpr char TraceMagic2[4] = {'C', 'B', 'T', '2'};

/** Smallest encoded CBT2 record: class, taken, a one-byte PC delta
 *  varint and the four register/size bytes. */
constexpr std::uint64_t MinEncodedRecordBytes = 7;

/** Bytes from @p f's position to its end; 0 when it cannot seek
 *  (trace files are regular files, never pipes). */
std::uint64_t
remainingBytes(std::FILE *f)
{
    const long pos = std::ftell(f);
    if (pos < 0 || std::fseek(f, 0, SEEK_END) != 0)
        return 0;
    const long end = std::ftell(f);
    if (std::fseek(f, pos, SEEK_SET) != 0 || end < pos)
        return 0;
    return static_cast<std::uint64_t>(end - pos);
}

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

Result<void>
Trace::saveTo(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return Error(Errc::IoError,
                     path + ": cannot open for writing");
    TraceFileHeader hdr;
    std::memcpy(hdr.magic, TraceMagic, sizeof(hdr.magic));
    hdr.recordSize = sizeof(TraceRecord);
    hdr.numRecords = records_.size();
    bool ok = std::fwrite(&hdr, sizeof(hdr), 1, f) == 1;
    if (ok && !records_.empty()) {
        ok = std::fwrite(records_.data(), sizeof(TraceRecord),
                         records_.size(), f) == records_.size();
    }
    ok = std::fclose(f) == 0 && ok;
    if (!ok)
        return Error(Errc::IoError, path + ": short write");
    return Result<void>();
}

namespace tracecodec
{

void
putVarint(std::FILE *f, std::uint64_t v)
{
    while (v >= 0x80) {
        std::fputc(static_cast<int>((v & 0x7f) | 0x80), f);
        v >>= 7;
    }
    std::fputc(static_cast<int>(v), f);
}

bool
getVarint(std::FILE *f, std::uint64_t &v)
{
    v = 0;
    unsigned shift = 0;
    while (true) {
        const int c = std::fgetc(f);
        if (c == EOF || shift >= 64)
            return false;
        v |= static_cast<std::uint64_t>(c & 0x7f) << shift;
        if (!(c & 0x80))
            return true;
        shift += 7;
    }
}

bool
writeBody(std::FILE *f, const std::vector<TraceRecord> &records)
{
    putVarint(f, records.size());
    Addr prev_pc = 0;
    Addr prev_addr = 0;
    for (const auto &r : records) {
        std::fputc(static_cast<int>(r.cls), f);
        std::fputc(r.taken ? 1 : 0, f);
        putVarint(f, zigzag(static_cast<std::int64_t>(r.pc) -
                            static_cast<std::int64_t>(prev_pc)));
        prev_pc = r.pc;
        std::fputc(r.src1, f);
        std::fputc(r.src2, f);
        std::fputc(r.dest, f);
        std::fputc(r.size, f);
        if (isMemory(r.cls)) {
            putVarint(f,
                      zigzag(static_cast<std::int64_t>(r.effAddr) -
                             static_cast<std::int64_t>(prev_addr)));
            prev_addr = r.effAddr;
        } else if (r.cls == InstClass::Branch) {
            putVarint(f,
                      zigzag(static_cast<std::int64_t>(r.effAddr) -
                             static_cast<std::int64_t>(r.pc)));
        } else if (isBlockMarker(r.cls)) {
            putVarint(f, r.blockId);
        }
    }
    return std::ferror(f) == 0;
}

bool
readBody(std::FILE *f, std::vector<TraceRecord> &records)
{
    std::uint64_t count = 0;
    // A count the rest of the file cannot hold is corrupt; trusting
    // it would let one flipped byte demand an impossible allocation.
    if (!getVarint(f, count) ||
        count > remainingBytes(f) / MinEncodedRecordBytes)
        return false;
    records.clear();
    records.reserve(count);
    Addr prev_pc = 0;
    Addr prev_addr = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
        TraceRecord r;
        const int cls = std::fgetc(f);
        const int taken = std::fgetc(f);
        if (cls == EOF || taken == EOF)
            return false;
        r.cls = static_cast<InstClass>(cls);
        r.taken = taken != 0;
        std::uint64_t v;
        if (!getVarint(f, v))
            return false;
        r.pc = static_cast<Addr>(static_cast<std::int64_t>(prev_pc) +
                                 unzigzag(v));
        prev_pc = r.pc;
        const int s1 = std::fgetc(f);
        const int s2 = std::fgetc(f);
        const int dst = std::fgetc(f);
        const int size = std::fgetc(f);
        if (size == EOF)
            return false;
        r.src1 = static_cast<RegIndex>(s1);
        r.src2 = static_cast<RegIndex>(s2);
        r.dest = static_cast<RegIndex>(dst);
        r.size = static_cast<std::uint8_t>(size);
        if (isMemory(r.cls)) {
            if (!getVarint(f, v))
                return false;
            r.effAddr = static_cast<Addr>(
                static_cast<std::int64_t>(prev_addr) + unzigzag(v));
            prev_addr = r.effAddr;
        } else if (r.cls == InstClass::Branch) {
            if (!getVarint(f, v))
                return false;
            r.effAddr = static_cast<Addr>(
                static_cast<std::int64_t>(r.pc) + unzigzag(v));
        } else if (isBlockMarker(r.cls)) {
            if (!getVarint(f, v))
                return false;
            r.blockId = static_cast<BlockId>(v);
        }
        records.push_back(r);
    }
    return true;
}

} // namespace tracecodec

Result<void>
Trace::saveCompressed(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return Error(Errc::IoError,
                     path + ": cannot open for writing");
    std::fwrite(TraceMagic2, 1, sizeof(TraceMagic2), f);
    bool ok = tracecodec::writeBody(f, records_);
    ok = std::fclose(f) == 0 && ok;
    if (!ok)
        return Error(Errc::IoError, path + ": short write");
    return Result<void>();
}

const DecodedTrace &
Trace::ensureDecoded() const
{
    if (!decoded_) {
        PROF_SCOPE(prof::Phase::DecodeBatch);
        decoded_ =
            std::make_shared<const DecodedTrace>(
                DecodedTrace::build(records_));
    }
    return *decoded_;
}

Result<void>
Trace::loadFrom(const std::string &path)
{
    decoded_.reset();
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return Error(Errc::IoError,
                     path + ": cannot open for reading");
    char magic[4];
    bool ok = std::fread(magic, 1, sizeof(magic), f) == sizeof(magic);
    if (ok && std::memcmp(magic, TraceMagic2, sizeof(magic)) == 0) {
        ok = tracecodec::readBody(f, records_);
    } else if (ok &&
               std::memcmp(magic, TraceMagic, sizeof(magic)) == 0) {
        // CBT1: raw records after the fixed header.
        TraceFileHeader hdr;
        std::memcpy(hdr.magic, magic, sizeof(magic));
        ok = std::fread(&hdr.recordSize,
                        sizeof(hdr) - sizeof(hdr.magic), 1, f) == 1 &&
             hdr.recordSize == sizeof(TraceRecord) &&
             hdr.numRecords <= remainingBytes(f) / sizeof(TraceRecord);
        if (ok) {
            records_.resize(hdr.numRecords);
            if (hdr.numRecords > 0) {
                ok = std::fread(records_.data(), sizeof(TraceRecord),
                                records_.size(),
                                f) == records_.size();
            }
        }
    } else {
        ok = false;
    }
    std::fclose(f);
    if (!ok) {
        records_.clear();
        return Error(Errc::Corrupt,
                     path + ": corrupt or incompatible trace file");
    }
    return Result<void>();
}

} // namespace cbws
