/**
 * @file
 * SoA (structure-of-arrays) batch pre-decode of an instruction trace.
 *
 * The replay loop used to re-derive three things per record, every
 * time a trace was simulated: the fetch/effective cache lines, the
 * register-renaming producer of each source operand, and whether the
 * record sits inside an annotated code block. All three are pure
 * functions of the trace prefix — the core dispatches every record
 * exactly once, in program order, so a record's ROB sequence number
 * *is* its trace index, which makes the renaming result (the trace
 * index of the latest older writer of each source register) a static
 * property of the trace. DecodedTrace computes them once, in one
 * linear pass, into flat parallel arrays that all seven prefetcher
 * configurations of a matrix row then share read-only.
 *
 * The core always replays from these buffers (OooCore::begin builds
 * them on first use); the renaming column is what its ready list
 * links producers by.
 */

#ifndef CBWS_TRACE_DECODED_HH
#define CBWS_TRACE_DECODED_HH

#include <cstdint>
#include <vector>

#include "base/types.hh"
#include "trace/record.hh"

namespace cbws
{

/**
 * Per-record derived values for one trace, stored column-wise.
 * Indices parallel the source trace's record indices.
 */
struct DecodedTrace
{
    /** Producer sentinel: the source register holds an architectural
     *  value (no older in-trace writer). */
    static constexpr std::uint32_t NoProd = ~std::uint32_t(0);

    /** flags bit: record was fetched inside an annotated block
     *  (BLOCK_END itself counts as inside, matching the fetch
     *  stage's attribution). */
    static constexpr std::uint8_t InBlock = 1u << 0;

    std::vector<LineAddr> pcLine;  ///< lineOf(pc) per record
    std::vector<LineAddr> effLine; ///< lineOf(effAddr) per record
    /** Trace index of the latest older record writing src1/src2, or
     *  NoProd. Equals the producer's ROB sequence number. */
    std::vector<std::uint32_t> src1Prod;
    std::vector<std::uint32_t> src2Prod;
    std::vector<std::uint8_t> flags;

    std::size_t size() const { return flags.size(); }

    /**
     * One-pass decode of @p records. The renaming column replays the
     * dispatch stage's order exactly: a record's sources resolve
     * against the writers *before* it, then it claims its own
     * destination.
     */
    static DecodedTrace build(const std::vector<TraceRecord> &records);
};

} // namespace cbws

#endif // CBWS_TRACE_DECODED_HH
