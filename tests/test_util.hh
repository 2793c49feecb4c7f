/**
 * @file
 * Shared helpers for the unit and integration tests.
 */

#ifndef CBWS_TESTS_TEST_UTIL_HH
#define CBWS_TESTS_TEST_UTIL_HH

#include <set>
#include <string>
#include <vector>

#include "prefetch/prefetcher.hh"
#include "trace/trace.hh"

namespace cbws
{
namespace test
{

/**
 * PrefetchSink that records every issued line and serves isCached()
 * from a configurable set.
 */
class MockSink : public PrefetchSink
{
  public:
    void
    issuePrefetch(LineAddr line, PfSource src) override
    {
        issued.push_back(line);
        sources.push_back(src);
    }

    bool
    isCached(LineAddr line) const override
    {
        return cached.count(line) > 0;
    }

    bool
    wasIssued(LineAddr line) const
    {
        for (LineAddr l : issued)
            if (l == line)
                return true;
        return false;
    }

    std::vector<LineAddr> issued;
    std::vector<PfSource> sources;
    std::set<LineAddr> cached;
};

/** Feed a memory access (as a committed op) into a prefetcher. */
inline PrefetchContext
memCtx(Addr pc, Addr addr, bool is_write = false, bool l1_hit = false,
       bool l2_miss = true)
{
    PrefetchContext ctx;
    ctx.pc = pc;
    ctx.addr = addr;
    ctx.line = lineOf(addr);
    ctx.isWrite = is_write;
    ctx.l1Hit = l1_hit;
    ctx.l2Miss = l2_miss;
    return ctx;
}

} // namespace test
} // namespace cbws

#endif // CBWS_TESTS_TEST_UTIL_HH
