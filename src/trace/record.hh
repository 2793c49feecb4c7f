/**
 * @file
 * Definition of the dynamic instruction trace record consumed by the
 * out-of-order core model.
 *
 * Workload kernels (src/workloads) execute their real algorithm and
 * emit one TraceRecord per dynamic instruction: program counter,
 * instruction class, up to two source registers and one destination
 * register (which the core uses for dependency-driven scheduling), the
 * effective address for memory operations, and the outcome/target for
 * branches. Code block boundaries — the paper's BLOCK_BEGIN and
 * BLOCK_END ISA extensions — travel in the same stream as marker
 * records.
 */

#ifndef CBWS_TRACE_RECORD_HH
#define CBWS_TRACE_RECORD_HH

#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>

#include "base/logging.hh"
#include "base/types.hh"

namespace cbws
{

/** Broad classification of a dynamic instruction. */
enum class InstClass : std::uint8_t
{
    IntAlu,     ///< single-cycle integer operation
    IntMul,     ///< multi-cycle integer multiply/divide
    FpAlu,      ///< floating-point operation
    Load,       ///< memory read
    Store,      ///< memory write
    Branch,     ///< conditional or unconditional control transfer
    BlockBegin, ///< BLOCK_BEGIN marker (paper's ISA extension)
    BlockEnd,   ///< BLOCK_END marker
    Nop,        ///< no-operation placeholder
};

/** True for Load and Store records. */
constexpr bool
isMemory(InstClass cls)
{
    return cls == InstClass::Load || cls == InstClass::Store;
}

/** True for the BLOCK_BEGIN / BLOCK_END markers. */
constexpr bool
isBlockMarker(InstClass cls)
{
    return cls == InstClass::BlockBegin || cls == InstClass::BlockEnd;
}

/**
 * An address as a trace record stores it. Traces live in a 4 GiB
 * address space: every kernel's working set is scaled to the
 * simulated 2 MB L2, so its PCs and data addresses stay far below
 * 2^32. Reads widen to Addr implicitly.
 */
using TraceAddr = std::uint32_t;

/**
 * Narrow @p addr to a TraceAddr; fatal (exit 1, naming the address)
 * when it does not fit, so a kernel that outgrows the trace address
 * space stops instead of aliasing into it.
 */
inline TraceAddr
traceAddr(Addr addr)
{
    if (addr > std::numeric_limits<TraceAddr>::max()) [[unlikely]]
        fatal("trace address %#llx does not fit the 32-bit trace "
              "address space",
              static_cast<unsigned long long>(addr));
    return static_cast<TraceAddr>(addr);
}

/**
 * One dynamic instruction.
 *
 * The layout is kept POD and packed to exactly 16 bytes (4 records
 * per 64-byte cache line) so multi-million instruction traces stay
 * cheap to hold, cheap to stream from disk, and light on memory
 * bandwidth in the replay loop. The static_asserts below pin the
 * layout: a field added or reordered carelessly fails the build
 * instead of silently bloating every trace and invalidating the
 * trace cache's on-disk entries (which carry a record-size tag).
 * Addresses are TraceAddrs; the factories below are the checked way
 * in.
 */
struct TraceRecord
{
    TraceAddr pc = 0;         ///< virtual address of the instruction
    TraceAddr effAddr = 0;    ///< effective address (Load/Store) or
                              ///< branch target (Branch)
    InstClass cls = InstClass::Nop;
    std::uint8_t size = 0;    ///< access size in bytes (Load/Store)
    RegIndex src1 = InvalidReg;
    RegIndex src2 = InvalidReg;
    RegIndex dest = InvalidReg;
    bool taken = false;       ///< actual branch outcome
    BlockId blockId = 0;      ///< block identifier for marker records

    /** Cache line touched by a memory record. */
    LineAddr line() const { return lineOf(effAddr); }

    static TraceRecord
    alu(Addr pc, RegIndex dest, RegIndex src1 = InvalidReg,
        RegIndex src2 = InvalidReg)
    {
        TraceRecord r;
        r.pc = traceAddr(pc);
        r.cls = InstClass::IntAlu;
        r.dest = dest;
        r.src1 = src1;
        r.src2 = src2;
        return r;
    }

    static TraceRecord
    fp(Addr pc, RegIndex dest, RegIndex src1 = InvalidReg,
       RegIndex src2 = InvalidReg)
    {
        TraceRecord r = alu(pc, dest, src1, src2);
        r.cls = InstClass::FpAlu;
        return r;
    }

    static TraceRecord
    load(Addr pc, Addr addr, RegIndex dest, RegIndex addr_reg = InvalidReg,
         std::uint8_t size = 8)
    {
        TraceRecord r;
        r.pc = traceAddr(pc);
        r.cls = InstClass::Load;
        r.effAddr = traceAddr(addr);
        r.size = size;
        r.dest = dest;
        r.src1 = addr_reg;
        return r;
    }

    static TraceRecord
    store(Addr pc, Addr addr, RegIndex data_reg,
          RegIndex addr_reg = InvalidReg, std::uint8_t size = 8)
    {
        TraceRecord r;
        r.pc = traceAddr(pc);
        r.cls = InstClass::Store;
        r.effAddr = traceAddr(addr);
        r.size = size;
        r.src1 = data_reg;
        r.src2 = addr_reg;
        return r;
    }

    static TraceRecord
    branch(Addr pc, bool taken, Addr target,
           RegIndex cond_reg = InvalidReg)
    {
        TraceRecord r;
        r.pc = traceAddr(pc);
        r.cls = InstClass::Branch;
        r.taken = taken;
        r.effAddr = traceAddr(target);
        r.src1 = cond_reg;
        return r;
    }

    static TraceRecord
    blockBegin(Addr pc, BlockId id)
    {
        TraceRecord r;
        r.pc = traceAddr(pc);
        r.cls = InstClass::BlockBegin;
        r.blockId = id;
        return r;
    }

    static TraceRecord
    blockEnd(Addr pc, BlockId id)
    {
        TraceRecord r;
        r.pc = traceAddr(pc);
        r.cls = InstClass::BlockEnd;
        r.blockId = id;
        return r;
    }
};

static_assert(std::is_trivially_copyable_v<TraceRecord>,
              "TraceRecord is memcpy'd to/from disk");
static_assert(sizeof(TraceRecord) == 16,
              "TraceRecord must stay packed at 16 bytes");
static_assert(offsetof(TraceRecord, blockId) == 14,
              "TraceRecord fields must leave no padding holes");

} // namespace cbws

#endif // CBWS_TRACE_RECORD_HH
