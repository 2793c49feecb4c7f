/**
 * @file
 * Configuration structures for the memory hierarchy, with defaults
 * matching Table II of the paper.
 */

#ifndef CBWS_MEM_PARAMS_HH
#define CBWS_MEM_PARAMS_HH

#include <cstdint>
#include <string>

#include "base/types.hh"

namespace cbws
{

/** Replacement policy selection for a cache. */
enum class ReplPolicy : std::uint8_t
{
    LRU,
    RandomRepl,
};

/** Parameters of one cache level. */
struct CacheParams
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 32 * 1024;
    unsigned assoc = 4;
    Cycle latency = 2;
    unsigned mshrs = 4;
    ReplPolicy repl = ReplPolicy::LRU;

    std::uint64_t numSets() const
    {
        return sizeBytes / (static_cast<std::uint64_t>(assoc) *
                            LineBytes);
    }
};

/**
 * Timing parameters of the cycle-level `ddr` backend
 * (mem/dram/ddr.hh). All times are core cycles (the simulator has a
 * single clock domain); defaults approximate a DDR4-like part behind
 * a 300-cycle-loaded-latency memory subsystem so the backend is
 * comparable to the paper's Table II flat model.
 */
struct DdrParams
{
    unsigned channels = 1;
    unsigned ranksPerChannel = 2;
    unsigned banksPerRank = 8;
    /** Row-buffer capacity; 8 KB = 128 lines per row. */
    std::uint64_t rowBytes = 8 * 1024;

    Cycle tCL = 22;  ///< CAS to first data beat
    Cycle tRCD = 22; ///< ACT to CAS
    Cycle tRP = 22;  ///< PRE to ACT
    /** Data-bus occupancy of one 64 B line; bandwidth = 64/tBURST
     *  bytes per cycle (default 8 B/cycle). */
    Cycle tBURST = 8;
    /** Four-activate window per rank (tFAW). */
    Cycle tFAW = 120;
    /** Refresh interval and duration: every tREFI cycles a rank is
     *  unavailable for tRFC. 0 disables refresh. */
    Cycle tREFI = 3900;
    Cycle tRFC = 180;

    /** Controller pipeline ahead of the first DRAM command. */
    Cycle frontendLatency = 100;
    /** Response path from the data bus back to the L2. */
    Cycle backendLatency = 100;

    unsigned readQueueEntries = 32;
    unsigned writeQueueEntries = 64;
    /** Buffered writes that trigger / end a write-drain burst. */
    unsigned writeHighWatermark = 48;
    unsigned writeLowWatermark = 16;
    /**
     * Read-queue occupancy at which prefetch-sourced requests are
     * deferred behind demands (the bandwidth-aware throttle keyed
     * off PfSource). 0 disables deferral.
     */
    unsigned prefetchDeferThreshold = 16;

    std::uint64_t linesPerRow() const { return rowBytes / LineBytes; }
    unsigned banksPerChannel() const
    {
        return ranksPerChannel * banksPerRank;
    }
    unsigned totalBanks() const
    {
        return channels * banksPerChannel();
    }
};

/** Parameters of the whole hierarchy (Table II defaults). */
struct HierarchyParams
{
    CacheParams l1d{"L1D", 32 * 1024, 4, 2, 4, ReplPolicy::LRU};
    CacheParams l1i{"L1I", 32 * 1024, 2, 2, 4, ReplPolicy::LRU};
    CacheParams l2{"L2", 2 * 1024 * 1024, 8, 30, 32, ReplPolicy::LRU};
    /**
     * Simulated cores sharing this hierarchy. Each core owns a private
     * L1I/L1D (and their MSHR files); the L2, the prefetch queue and
     * the DRAM backend are shared. 1 preserves the paper's single-core
     * system bit-for-bit (no banking, no interference accounting).
     */
    unsigned numCores = 1;
    /**
     * Shared-L2 banks arbitrating concurrent accesses when
     * numCores > 1: each bank accepts one access per cycle, later
     * same-cycle accesses to a busy bank queue behind it. Single-core
     * runs bypass the arbiter entirely.
     */
    unsigned l2Banks = 4;
    /**
     * Entries of the prefetch-pollution filter that remembers lines
     * recently evicted by prefetch fills (per owner core) so demand
     * misses on them can be attributed as cross-core pollution.
     * Only allocated when numCores > 1.
     */
    unsigned pollutionFilterEntries = 4096;
    /**
     * Main-memory timing backend (mem/dram/backend.hh registry
     * name). "fixed" reproduces the paper's flat-latency model
     * bit-for-bit; "ddr" is the cycle-level banked model.
     */
    std::string dramBackend = "fixed";
    /** Fixed main-memory access latency (Table II: 300 cycles). */
    Cycle dramLatency = 300;
    /** Timing of the `ddr` backend (unused by `fixed`). */
    DdrParams ddr;
    /** Prefetch request queue between prefetcher and L2. */
    unsigned prefetchQueueEntries = 32;
    /** Prefetches issued from the queue per cycle. */
    unsigned prefetchIssuePerCycle = 2;
    /** L2 MSHRs kept free for demand misses: prefetches may not
     *  starve the demand stream. */
    unsigned prefetchMshrReserve = 4;
    /** Also install prefetched lines into the L1D (the paper fills
     *  the L2 only; this is an ablation knob). */
    bool prefetchToL1 = false;
};

} // namespace cbws

#endif // CBWS_MEM_PARAMS_HH
