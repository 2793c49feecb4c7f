/**
 * @file
 * Classic PC-indexed stride prefetcher (reference-prediction-table
 * style, Fu/Patel/Janssens and Jouppi) with the paper's unrealistically
 * large 256-stream fully-associative table (Table II).
 */

#ifndef CBWS_PREFETCH_STRIDE_HH
#define CBWS_PREFETCH_STRIDE_HH

#include <cstdint>

#include "prefetch/lru_table.hh"
#include "prefetch/paramschema.hh"
#include "prefetch/prefetcher.hh"

namespace cbws
{

/** Stride prefetcher configuration. */
struct StrideParams
{
    unsigned tableEntries = 256; ///< fully associative, LRU
    unsigned degree = 2;         ///< lines prefetched per trigger
    unsigned confidenceThreshold = 2;
    bool trainOnHits = false;    ///< classic config: misses only
    unsigned pcBits = 48;        ///< for storage accounting
    unsigned strideBits = 12;
};

/** `--pf-opt` keys for StrideParams (also mounted by composites). */
ParamSchema strideParamSchema();

/**
 * Reference prediction table stride prefetcher.
 */
class StridePrefetcher : public Prefetcher
{
  public:
    explicit StridePrefetcher(const StrideParams &params =
                              StrideParams());

    void observeAccess(const PrefetchContext &ctx,
                 PrefetchSink &sink) override;

    PfStageMask stages() const override { return TrainsAtAccess; }
    std::uint64_t storageBits() const override;
    std::string name() const override { return "Stride"; }

  private:
    struct Entry
    {
        LineAddr lastLine = 0;
        std::int64_t stride = 0;
        unsigned confidence = 0;
    };

    StrideParams params_;
    LruTable<Addr, Entry> table_; ///< keyed by PC
};

} // namespace cbws

#endif // CBWS_PREFETCH_STRIDE_HH
