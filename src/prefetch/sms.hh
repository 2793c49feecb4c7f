/**
 * @file
 * Spatial Memory Streaming prefetcher (Somogyi et al., ISCA'06), the
 * paper's best-performing baseline and the fallback component of the
 * integrated CBWS+SMS scheme.
 *
 * SMS divides memory into fixed spatial regions (2 KB in Table II) and
 * learns, per trigger (PC + region offset), the bit pattern of lines
 * touched during one *generation* of accesses to the region. When a
 * region is next triggered by the same PC/offset, the recorded pattern
 * is streamed into the L2.
 *
 * Structures per Table II: 32-entry accumulation (active generation)
 * table, 32-entry filter table, 512-entry pattern history table.
 *
 * Generation termination: the original design ends a generation when a
 * line of the region is evicted or invalidated. This model ends a
 * generation on capacity eviction from the accumulation table (LRU)
 * and at simulation end, which tracks the original closely at these
 * table sizes and keeps the prefetcher decoupled from cache internals
 * (see DESIGN.md).
 */

#ifndef CBWS_PREFETCH_SMS_HH
#define CBWS_PREFETCH_SMS_HH

#include <cstdint>
#include <vector>

#include "prefetch/lru_table.hh"
#include "prefetch/paramschema.hh"
#include "prefetch/prefetcher.hh"

namespace cbws
{

/** SMS configuration (Table II / III defaults). */
struct SmsParams
{
    std::uint64_t regionBytes = 2048;
    unsigned agtEntries = 32;
    unsigned filterEntries = 32;
    unsigned phtEntries = 512;
    unsigned phtAssoc = 4;
    bool trainOnHits = true; ///< SMS observes all L1 accesses
    unsigned pcBits = 48;    ///< storage accounting (Table III)
    unsigned offsetBits = 5;
    unsigned tagBits = 36;
    /** Pattern width used in Table III's budget. The paper accounts
     *  a 16-bit region pattern (2-line granularity) even though the
     *  functional pattern covers all 32 lines; we follow its
     *  arithmetic so the storage comparison reproduces exactly. */
    unsigned storagePatternBits = 16;
};

/** `--pf-opt` keys for SmsParams (also mounted by CBWS+SMS). */
ParamSchema smsParamSchema();

/**
 * The SMS prefetcher.
 */
class SmsPrefetcher : public Prefetcher
{
  public:
    explicit SmsPrefetcher(const SmsParams &params = SmsParams());

    void observeAccess(const PrefetchContext &ctx,
                 PrefetchSink &sink) override;

    PfStageMask stages() const override { return TrainsAtAccess; }
    std::uint64_t storageBits() const override;
    std::string name() const override { return "SMS"; }

    void exportMetrics(MetricsRegistry &reg,
                       const std::string &prefix) const override;

    /** Lines per region (pattern width). */
    unsigned linesPerRegion() const { return linesPerRegion_; }

  private:
    struct Generation
    {
        Addr triggerPc = 0;
        unsigned triggerOffset = 0;
        std::uint64_t pattern = 0;
    };

    Addr regionOf(Addr addr) const { return addr / params_.regionBytes; }
    unsigned offsetOf(Addr addr) const
    {
        return static_cast<unsigned>((addr % params_.regionBytes) >>
                                     LineShift);
    }
    std::uint64_t phtKey(Addr pc, unsigned offset) const
    {
        return (pc << params_.offsetBits) | offset;
    }

    /** Move a finished generation's pattern into the PHT. */
    void endGeneration(const Generation &gen);

    /** PHT lookup; returns 0 when absent. */
    std::uint64_t phtLookup(std::uint64_t key);

    void phtInsert(std::uint64_t key, std::uint64_t pattern);

    SmsParams params_;
    unsigned linesPerRegion_;

    /** Active generation table: region -> accumulating pattern. */
    LruTable<Addr, Generation> agt_;

    /** Filter table: regions touched once (region -> first access). */
    struct FilterEntry
    {
        Addr triggerPc = 0;
        unsigned triggerOffset = 0;
    };
    LruTable<Addr, FilterEntry> filter_;

    /** Pattern history table, set-associative with LRU. */
    struct PhtEntry
    {
        std::uint64_t key = 0;
        std::uint64_t pattern = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
    };
    std::vector<PhtEntry> pht_;
    std::uint64_t useTick_ = 0;
};

} // namespace cbws

#endif // CBWS_PREFETCH_SMS_HH
