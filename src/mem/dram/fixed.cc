/**
 * @file
 * The `fixed` DRAM backend: the paper's flat-latency main memory,
 * plus the legacy optional global issue throttle (dramMinInterval).
 *
 * This reproduces the pre-backend Hierarchy::dramFillReady behaviour
 * bit-for-bit — same formula, same single piece of state — so the
 * default configuration's results are byte-identical to historical
 * runs. Writebacks are free, exactly as before.
 */

#include <memory>

#include "mem/dram/backend.hh"
#include "mem/params.hh"

namespace cbws
{

namespace
{

class FixedDramBackend : public DramBackend
{
  public:
    explicit FixedDramBackend(const HierarchyParams &params)
        : latency_(params.dramLatency),
          minInterval_(params.dramMinInterval)
    {
    }

    const char *name() const override { return "fixed"; }

    Cycle
    read(const DramRequest &req) override
    {
        ++stats_.reads;
        if (minInterval_ == 0)
            return req.arrival + latency_;
        const Cycle start =
            req.arrival > nextFree_ ? req.arrival : nextFree_;
        nextFree_ = start + minInterval_;
        stats_.busBusyCycles += minInterval_;
        return start + latency_;
    }

    void
    write(LineAddr line, Cycle arrival) override
    {
        // Writebacks cost nothing in the flat model (the legacy
        // behaviour: only byte counters, which the hierarchy keeps).
        (void)line;
        (void)arrival;
        ++stats_.writes;
    }

  private:
    const Cycle latency_;
    const Cycle minInterval_;
    /** Next cycle the DRAM accepts a request (throttle state). */
    Cycle nextFree_ = 0;
};

} // anonymous namespace

std::unique_ptr<DramBackend>
makeFixedBackend(const HierarchyParams &params)
{
    return std::make_unique<FixedDramBackend>(params);
}

} // namespace cbws
