/**
 * @file
 * The `fixed` DRAM backend: the paper's flat-latency main memory.
 *
 * Every read completes `dramLatency` cycles after it arrives, with no
 * bandwidth limit; writebacks are free. This is the pre-backend
 * Hierarchy::dramFillReady formula, so the default configuration's
 * results are byte-identical to historical runs. Bandwidth studies
 * use the `ddr` backend (its `tBURST`).
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
        : latency_(params.dramLatency)
    {
    }

    const char *name() const override { return "fixed"; }

    Cycle
    read(const DramRequest &req) override
    {
        ++stats_.reads;
        return req.arrival + latency_;
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
};

} // anonymous namespace

std::unique_ptr<DramBackend>
makeFixedBackend(const HierarchyParams &params)
{
    return std::make_unique<FixedDramBackend>(params);
}

} // namespace cbws
