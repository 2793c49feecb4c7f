/**
 * @file
 * In-memory instruction trace container plus the CBT2 on-disk format
 * for saving and replaying traces.
 */

#ifndef CBWS_TRACE_TRACE_HH
#define CBWS_TRACE_TRACE_HH

#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

#include "base/result.hh"
#include "trace/record.hh"

namespace cbws
{

/**
 * The CBT2 record codec (per-field delta + varint encoding) and its
 * varints, shared by Trace::saveTo/loadFrom and the on-disk
 * trace cache. It works on memory: callers read or write each file
 * with one fread/fwrite and own the surrounding magic/header bytes.
 *
 * A varint is LEB128-style: 7 bits per byte, low group first, the
 * top bit set on every byte but the last. It takes at most 10 bytes,
 * and the 10th byte is at most 0x01 (it holds bit 63 only); anything
 * longer or larger is corrupt.
 */
namespace tracecodec
{

/** Append @p v to @p out as a varint. */
void appendVarint(std::string &out, std::uint64_t v);

/**
 * Decode the varint at @p p into @p v, reading no byte at or past
 * @p end, and advance @p p past it. False on EOF or overflow (more
 * than 10 bytes, or a 10th byte above 0x01).
 */
bool readVarint(const unsigned char *&p, const unsigned char *end,
                std::uint64_t &v);

/** Append the record count + encoded records to @p out. */
void encodeBody(const std::vector<TraceRecord> &records,
                std::string &out);

/**
 * Decode the @p n bytes at @p p, written by encodeBody(), into
 * @p records (replacing its contents). Returns false on EOF or
 * corruption, including a record count the @p n bytes are too short
 * to hold; @p records is then in an unspecified state and the caller
 * must discard it.
 */
bool decodeBody(const unsigned char *p, std::size_t n,
                std::vector<TraceRecord> &records);

/**
 * Replace @p bytes with the whole of the file @p f, read with one
 * fread. False on a seek or read error.
 */
bool readAll(std::FILE *f, std::string &bytes);

} // namespace tracecodec

/**
 * A dynamic instruction trace: an append-only sequence of TraceRecords
 * produced by a workload kernel and consumed by the core model.
 */
class Trace
{
  public:
    void append(const TraceRecord &rec) { records_.push_back(rec); }

    const TraceRecord &operator[](std::size_t i) const
    {
        return records_[i];
    }

    std::size_t size() const { return records_.size(); }
    bool empty() const { return records_.empty(); }

    void clear() { records_.clear(); }

    void reserve(std::size_t n) { records_.reserve(n); }

    auto begin() const { return records_.begin(); }
    auto end() const { return records_.end(); }

    std::vector<TraceRecord> &records() { return records_; }

    const std::vector<TraceRecord> &records() const { return records_; }

    /**
     * No-op: the core derives everything it needs from the records
     * as it runs. Kept only because bench/suite still calls it.
     */
    void ensureDecoded() const {}

    /** Count of records of a given class. */
    std::size_t countClass(InstClass cls) const;

    /**
     * Structural validation: block markers balanced and non-nested,
     * BLOCK_END ids matching their BLOCK_BEGIN, memory records with
     * non-zero addresses. Returns an empty string when valid, or a
     * description of the first violation.
     */
    std::string validate() const;

    /**
     * Serialise to the CBT2 format: per-field delta + varint
     * encoding, a fraction of the in-memory records' 16 bytes each.
     * IoError on open or short-write failure.
     */
    Result<void> saveTo(const std::string &path) const;

    /**
     * Load a trace previously written by saveTo(). IoError when the
     * file cannot be opened, Corrupt on a bad magic or a malformed
     * or truncated body; the trace is left empty on failure.
     */
    Result<void> loadFrom(const std::string &path);

  private:
    std::vector<TraceRecord> records_;
};

} // namespace cbws

#endif // CBWS_TRACE_TRACE_HH
