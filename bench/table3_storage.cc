/**
 * @file
 * Regenerates Table III (and the Fig. 8 budget): the hardware storage
 * requirements of every evaluated prefetcher, computed from each
 * scheme's live storageBits() accounting.
 */

#include <cstdio>

#include "base/table.hh"
#include "common.hh"
#include "sim/config.hh"

using namespace cbws;

int
main(int argc, char **argv)
{
    bench::init(argc, argv, bench::Options::None);
    std::printf("Table III - hardware storage comparison\n\n");

    TextTable t;
    t.header({"prefetcher", "bits", "KB", "paper"});
    struct Row
    {
        const char *scheme;
        const char *paper;
    };
    const Row rows[] = {
        {"Stride", "2.25 KB"},
        {"GHB-G/DC", "2.25 KB"},
        {"GHB-PC/DC", "3.75 KB"},
        {"SMS", "~5 KB"},
        {"CBWS", "<1 KB (Fig. 8)"},
        {"CBWS+SMS", "~6 KB (sum)"},
    };
    for (const auto &row : rows) {
        SystemConfig cfg;
        cfg.scheme = row.scheme;
        auto pf = makePrefetcher(cfg);
        const double kb = pf->storageBits() / 8.0 / 1024.0;
        t.row({pf->name(), std::to_string(pf->storageBits()),
               TextTable::num(kb, 2), row.paper});
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("The CBWS budget breaks down per Fig. 8: current "
                "CBWS buffer, 4 predecessor CBWSs,\nincremental "
                "differential buffers, 4 history shift registers "
                "and the 16-entry\ndifferential history table.\n");
    return 0;
}
