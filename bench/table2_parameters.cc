/**
 * @file
 * Regenerates Table II: the simulated-system parameters, printed from
 * the live defaults so the table can never drift from the code.
 */

#include <cstdio>

#include "base/table.hh"
#include "common.hh"
#include "core/cbws_prefetcher.hh"
#include "prefetch/ghb.hh"
#include "prefetch/sms.hh"
#include "prefetch/stride.hh"
#include "sim/config.hh"

using namespace cbws;

int
main(int argc, char **argv)
{
    bench::init(argc, argv, bench::Options::None);
    std::printf("Table II - simulation parameters (live defaults)\n\n");
    const SystemConfig c;
    const StrideParams stride;
    const GhbParams ghb;
    const SmsParams sms;
    const CbwsParams cbws;

    TextTable t;
    t.header({"parameter", "value"});
    t.row({"OoO width", std::to_string(c.core.width)});
    t.row({"ROB entries", std::to_string(c.core.robSize)});
    t.row({"LDQ entries", std::to_string(c.core.ldqSize)});
    t.row({"STQ entries", std::to_string(c.core.stqSize)});
    t.row({"Functional units", std::to_string(c.core.numFUs)});
    t.row({"BP type", "Tournament"});
    t.row({"BP entries",
           std::to_string(c.core.branchPred.globalEntries)});
    t.row({"BP history size",
           std::to_string(c.core.branchPred.historyBits) + "-bit"});
    t.row({"BTB entries",
           std::to_string(c.core.branchPred.btbEntries)});
    t.row({"L1D size",
           std::to_string(c.mem.l1d.sizeBytes / 1024) + " KB, " +
               std::to_string(c.mem.l1d.assoc) + "-way LRU, " +
               std::to_string(c.mem.l1d.latency) + " cycles, " +
               std::to_string(c.mem.l1d.mshrs) + " MSHRs"});
    t.row({"L1I size",
           std::to_string(c.mem.l1i.sizeBytes / 1024) + " KB, " +
               std::to_string(c.mem.l1i.assoc) + "-way LRU, " +
               std::to_string(c.mem.l1i.latency) + " cycles, " +
               std::to_string(c.mem.l1i.mshrs) + " MSHRs"});
    t.row({"L2 size",
           std::to_string(c.mem.l2.sizeBytes / 1024 / 1024) +
               " MB inclusive, " + std::to_string(c.mem.l2.assoc) +
               "-way LRU, " + std::to_string(c.mem.l2.latency) +
               " cycles, " + std::to_string(c.mem.l2.mshrs) +
               " MSHRs"});
    t.row({"Line size", std::to_string(LineBytes) + " bytes"});
    t.row({"Memory latency",
           std::to_string(c.mem.dramLatency) + " cycles"});
    t.row({"Stride table",
           std::to_string(stride.tableEntries) +
               " entries fully assoc."});
    t.row({"GHB entries", std::to_string(ghb.bufferEntries)});
    t.row({"GHB history length",
           std::to_string(ghb.historyLength)});
    t.row({"GHB prefetch degree", std::to_string(ghb.degree)});
    t.row({"SMS AGT / filter / PHT",
           std::to_string(sms.agtEntries) + " / " +
               std::to_string(sms.filterEntries) + " / " +
               std::to_string(sms.phtEntries) + " entries"});
    t.row({"SMS region size",
           std::to_string(sms.regionBytes) + " bytes"});
    t.row({"CBWS max vector members",
           std::to_string(cbws.maxVectorMembers)});
    t.row({"CBWS stride size",
           std::to_string(cbws.strideBits) + "-bit"});
    t.row({"CBWS last CBWSs stored",
           std::to_string(cbws.numSteps)});
    t.row({"CBWS differential table",
           std::to_string(cbws.tableEntries) +
               " entries, random repl."});
    t.row({"CBWS lookup hash",
           std::to_string(cbws.hashBits) + " line LSBs"});
    std::printf("%s\n", t.render().c_str());
    return 0;
}
