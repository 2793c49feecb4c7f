/**
 * @file
 * End-to-end trace pipeline: synthesise -> save (CBT2) -> reload ->
 * auto-annotate -> simulate -> dump stats.
 *
 * Demonstrates the persistence and inspection surface of the API:
 * Trace::saveTo / loadFrom, LoopAnnotator, and the gem5-style
 * statistics dump.
 */

#include <cstdio>
#include <iostream>

#include "sim/simulator.hh"
#include "sim/statsdump.hh"
#include "trace/loop_annotator.hh"
#include "workloads/registry.hh"

using namespace cbws;

namespace
{

long
fileSize(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return -1;
    std::fseek(f, 0, SEEK_END);
    const long n = std::ftell(f);
    std::fclose(f);
    return n;
}

} // anonymous namespace

int
main()
{
    // 1. Synthesise a trace.
    auto workload = findWorkload("lu-ncb-simlarge");
    WorkloadParams params;
    params.maxInstructions = 60000;
    Trace trace;
    workload->generate(trace, params);
    std::printf("synthesised %zu records from %s\n", trace.size(),
                workload->name().c_str());

    // 2. Persist and compare the file with the in-memory records.
    const std::string compressed = "/tmp/cbws_example_comp.cbt";
    trace.saveTo(compressed);
    const std::size_t in_memory = trace.size() * sizeof(TraceRecord);
    std::printf("in memory: %zu bytes; saved (CBT2): %ld bytes "
                "(%.1fx smaller)\n",
                in_memory, fileSize(compressed),
                static_cast<double>(in_memory) / fileSize(compressed));

    // 3. Reload the compressed trace; verify integrity.
    Trace reloaded;
    if (!reloaded.loadFrom(compressed)) {
        std::fprintf(stderr, "reload failed\n");
        return 1;
    }
    std::printf("reloaded %zu records (%zu annotated iterations)\n",
                reloaded.size(),
                reloaded.countClass(InstClass::BlockBegin));

    // 4. Strip the markers and let the automatic annotator find the
    //    loop again (the LLVM-pass substitution path).
    Trace rawStream;
    for (const auto &rec : reloaded)
        if (!isBlockMarker(rec.cls))
            rawStream.append(rec);
    LoopAnnotator annotator;
    Trace reannotated = annotator.annotate(rawStream);
    std::printf("auto-annotator found %zu tight innermost loop(s)\n\n",
                annotator.loops().size());

    // 5. Simulate the re-annotated trace under CBWS+SMS and print the
    //    full statistics dump.
    SystemConfig config;
    config.scheme = "CBWS+SMS";
    SimResult result = simulate(reannotated, config, 50000);
    result.workload = workload->name() + " (reannotated)";
    dumpStats(std::cout, result);

    std::remove(compressed.c_str());
    return 0;
}
