/**
 * @file
 * Ablation study of the CBWS design choices called out in DESIGN.md:
 *
 *  - differential-history-table size (fft/streamcluster thrash),
 *  - maximum CBWS vector members (bzip2's >16-line blocks),
 *  - multi-step prediction depth (timeliness),
 *  - training on all block accesses vs misses only (the
 *    compiler-hint aggressiveness claim of Section II).
 *
 * Each sweep runs the standalone CBWS prefetcher on a small set of
 * benchmarks chosen to expose the parameter, tuned through the same
 * `key=value` options as `cbws-sim --pf-opt`.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "base/table.hh"
#include "common.hh"
#include "workloads/registry.hh"

using namespace cbws;

namespace
{

SimResult
runCbws(const std::string &workload,
        const std::vector<std::string> &pf_opts, std::uint64_t insts)
{
    auto w = findWorkload(workload);
    SystemConfig config;
    config.scheme = "CBWS";
    config.pfOpts = pf_opts;
    WorkloadParams wp;
    wp.maxInstructions = insts;
    return simulateWorkload(*w, config, wp, SimProbes(), insts / 4);
}

void
sweepTableSize(std::uint64_t insts)
{
    std::printf("-- differential history table size "
                "(paper: 16 entries) --\n");
    TextTable t;
    t.header({"entries", "fft IPC", "fft MPKI", "streamcl IPC",
              "sgemm IPC"});
    for (unsigned entries : {4u, 8u, 16u, 32u, 64u}) {
        const std::vector<std::string> p = {
            "table-entries=" + std::to_string(entries)};
        auto fft = runCbws("fft-simlarge", p, insts);
        auto sc = runCbws("streamcluster-simlarge", p, insts);
        auto sg = runCbws("sgemm-medium", p, insts);
        t.row({std::to_string(entries),
               TextTable::num(fft.ipc(), 3),
               TextTable::num(fft.mpki(), 1),
               TextTable::num(sc.ipc(), 3),
               TextTable::num(sg.ipc(), 3)});
    }
    std::printf("%s\n", t.render().c_str());
}

void
sweepVectorMembers(std::uint64_t insts)
{
    std::printf("-- max CBWS vector members (paper: 16; bzip2 "
                "blocks exceed it) --\n");
    TextTable t;
    t.header({"members", "bzip2 IPC", "bzip2 MPKI", "lbm IPC",
              "stencil IPC"});
    for (unsigned members : {4u, 8u, 16u, 32u, 64u}) {
        const std::vector<std::string> p = {
            "max-vector-members=" + std::to_string(members)};
        auto bz = runCbws("401.bzip2-source", p, insts);
        auto lbm = runCbws("lbm-long", p, insts);
        auto st = runCbws("stencil-default", p, insts);
        t.row({std::to_string(members),
               TextTable::num(bz.ipc(), 3),
               TextTable::num(bz.mpki(), 1),
               TextTable::num(lbm.ipc(), 3),
               TextTable::num(st.ipc(), 3)});
    }
    std::printf("%s\n", t.render().c_str());
}

void
sweepSteps(std::uint64_t insts)
{
    std::printf("-- multi-step prediction depth (paper: 4) --\n");
    TextTable t;
    t.header({"steps", "sgemm IPC", "stencil IPC",
              "libquantum IPC"});
    for (unsigned steps : {1u, 2u, 4u, 8u}) {
        const std::vector<std::string> p = {
            "num-steps=" + std::to_string(steps)};
        auto sg = runCbws("sgemm-medium", p, insts);
        auto st = runCbws("stencil-default", p, insts);
        auto lq = runCbws("462.libquantum-ref", p, insts);
        t.row({std::to_string(steps), TextTable::num(sg.ipc(), 3),
               TextTable::num(st.ipc(), 3),
               TextTable::num(lq.ipc(), 3)});
    }
    std::printf("%s\n", t.render().c_str());
}

void
sweepTrainFilter(std::uint64_t insts)
{
    std::printf("-- track all L1 accesses in blocks vs misses only "
                "(Section II's aggressiveness) --\n");
    TextTable t;
    t.header({"benchmark", "all-accesses IPC", "misses-only IPC"});
    for (const char *name :
         {"stencil-default", "sgemm-medium", "radix-simlarge"}) {
        auto a = runCbws(name, {}, insts);
        auto m = runCbws(name, {"train-on-hits=false"}, insts);
        t.row({name, TextTable::num(a.ipc(), 3),
               TextTable::num(m.ipc(), 3)});
    }
    std::printf("%s\n", t.render().c_str());
}

void
sweepL2Size(std::uint64_t insts)
{
    std::printf("-- L2 capacity sensitivity (paper: 2 MB) --\n");
    TextTable t;
    t.header({"L2 size", "stencil SMS IPC", "stencil CBWS+SMS IPC",
              "gain"});
    auto w = findWorkload("stencil-default");
    WorkloadParams wp;
    wp.maxInstructions = insts;
    Trace trace;
    w->generate(trace, wp);
    for (std::uint64_t kb : {512u, 1024u, 2048u, 4096u, 8192u}) {
        SystemConfig sms_cfg, hybrid_cfg;
        sms_cfg.scheme = "SMS";
        hybrid_cfg.scheme = "CBWS+SMS";
        sms_cfg.mem.l2.sizeBytes = kb * 1024;
        hybrid_cfg.mem.l2.sizeBytes = kb * 1024;
        auto sms = simulate(trace, sms_cfg, insts, SimProbes(),
                            insts / 4);
        auto hybrid = simulate(trace, hybrid_cfg, insts,
                               SimProbes(), insts / 4);
        t.row({std::to_string(kb) + " KB",
               TextTable::num(sms.ipc(), 3),
               TextTable::num(hybrid.ipc(), 3),
               TextTable::num(hybrid.ipc() / sms.ipc(), 2) + "x"});
    }
    std::printf("%s\n", t.render().c_str());
}

void
sweepPrefetchTarget(std::uint64_t insts)
{
    std::printf("-- prefetch fill target (paper: L2 only) --\n");
    TextTable t;
    t.header({"benchmark", "fill L2 (paper)", "fill L1D+L2"});
    for (const char *name :
         {"stencil-default", "sgemm-medium", "nw"}) {
        auto w = findWorkload(name);
        WorkloadParams wp;
        wp.maxInstructions = insts;
        Trace trace;
        w->generate(trace, wp);
        SystemConfig l2_cfg, l1_cfg;
        l2_cfg.scheme = "CBWS+SMS";
        l1_cfg.scheme = "CBWS+SMS";
        l1_cfg.mem.prefetchToL1 = true;
        auto l2r = simulate(trace, l2_cfg, insts, SimProbes(),
                            insts / 4);
        auto l1r = simulate(trace, l1_cfg, insts, SimProbes(),
                            insts / 4);
        t.row({name, TextTable::num(l2r.ipc(), 3),
               TextTable::num(l1r.ipc(), 3)});
    }
    std::printf("%s\n", t.render().c_str());
}

void
sweepHashWidth(std::uint64_t insts)
{
    std::printf("-- differential hash width (paper: 12-bit "
                "bit-select hashes, 16-bit folded tag) --\n");
    TextTable t;
    t.header({"hash bits", "stencil IPC", "radix IPC",
              "milc IPC"});
    for (unsigned bits : {4u, 8u, 12u, 16u}) {
        const std::vector<std::string> p = {
            "hash-bits=" + std::to_string(bits)};
        auto st = runCbws("stencil-default", p, insts);
        auto rx = runCbws("radix-simlarge", p, insts);
        auto ml = runCbws("433.milc-su3imp", p, insts);
        t.row({std::to_string(bits), TextTable::num(st.ipc(), 3),
               TextTable::num(rx.ipc(), 3),
               TextTable::num(ml.ipc(), 3)});
    }
    std::printf("%s\n", t.render().c_str());
}

void
sweepDramBandwidth(std::uint64_t insts)
{
    std::printf("-- DRAM bandwidth sensitivity (ddr backend; tBURST = "
                "data-bus cycles per 64 B\n   line, so 64/tBURST "
                "bytes per cycle) --\n");
    TextTable t;
    t.header({"tBURST", "B/cycle", "stencil SMS", "stencil CBWS+SMS",
              "gain"});
    auto w = findWorkload("stencil-default");
    WorkloadParams wp;
    wp.maxInstructions = insts;
    Trace trace;
    w->generate(trace, wp);
    for (Cycle tburst : {Cycle(2), Cycle(4), Cycle(8), Cycle(16),
                         Cycle(32)}) {
        SystemConfig sms_cfg, hybrid_cfg;
        sms_cfg.scheme = "SMS";
        hybrid_cfg.scheme = "CBWS+SMS";
        for (SystemConfig *cfg : {&sms_cfg, &hybrid_cfg}) {
            cfg->mem.dramBackend = "ddr";
            cfg->mem.ddr.tBURST = tburst;
        }
        auto sms = simulate(trace, sms_cfg, insts, SimProbes(),
                            insts / 4);
        auto hybrid = simulate(trace, hybrid_cfg, insts,
                               SimProbes(), insts / 4);
        t.row({std::to_string(tburst),
               TextTable::num(64.0 / static_cast<double>(tburst), 0),
               TextTable::num(sms.ipc(), 3),
               TextTable::num(hybrid.ipc(), 3),
               TextTable::num(hybrid.ipc() / sms.ipc(), 2) + "x"});
    }
    std::printf("%s\n", t.render().c_str());
}

} // anonymous namespace

int
main()
{
    const std::uint64_t insts = benchInstructionBudget(60000);
    bench::banner("CBWS ablations (design choices from DESIGN.md "
                  "section 6)",
                  "Section V design parameters", insts);
    sweepTableSize(insts);
    sweepVectorMembers(insts);
    sweepSteps(insts);
    sweepTrainFilter(insts);
    sweepHashWidth(insts);
    sweepPrefetchTarget(insts);
    sweepL2Size(insts);
    sweepDramBandwidth(insts);
    return 0;
}
