#include "suite.hh"

#include <sys/resource.h>
#include <unistd.h>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "base/argparse.hh"
#include "base/json.hh"
#include "base/logging.hh"
#include "base/metrics.hh"
#include "base/threadpool.hh"
#include "base/version.hh"
#include "sim/checkpoint.hh"
#include "sim/experiment.hh"
#include "workloads/registry.hh"

#ifndef CBWS_SUITE_EXPECTED_DIR
#define CBWS_SUITE_EXPECTED_DIR "expected"
#endif

namespace cbws
{
namespace suite
{

namespace
{

std::vector<std::string>
namesOf(const std::vector<WorkloadPtr> &workloads)
{
    std::vector<std::string> names;
    for (const auto &w : workloads)
        names.push_back(w->name());
    return names;
}

/** Parse a whole decimal string; false on anything else. */
bool
parseUint(const std::string &s, std::uint64_t &out)
{
    if (s.empty() || s.find_first_not_of("0123456789") != s.npos)
        return false;
    errno = 0;
    out = std::strtoull(s.c_str(), nullptr, 10);
    return errno == 0;
}

} // anonymous namespace

const std::vector<WorkloadSpec> &
workloadSpecs()
{
    static const std::vector<WorkloadSpec> specs = [] {
        std::vector<std::string> paper =
            namesOf(memoryIntensiveWorkloads());
        for (const auto &name : namesOf(lowMpkiWorkloads()))
            paper.push_back(name);

        std::vector<WorkloadSpec> out;
        // Core-bound: CBWS block training, little DRAM work.
        out.push_back({"paper-fig14", paper, allSchemeNames(), "fixed",
                       1, 150000, false});
        // Memory-bound: MSHR stalls, idle skip-ahead, DDR scheduling,
        // per-access training of the zoo schemes; few CBWS blocks.
        out.push_back({"dbms-ddr", namesOf(dbmsWorkloads()),
                       zooSchemeNames(), "ddr", 1, 250000, false});
        // The same hierarchy stepped by the lockstep 4-core loop, with a
        // shared banked L2 and cross-core pollution.
        out.push_back({"multicore-4", namesOf(memoryIntensiveWorkloads()),
                       {"No-Prefetch", "SMS", "CBWS+SMS"}, "fixed", 4,
                       100000, false});
        // The thread pool, trace-cache reads and checkpoint appends.
        out.push_back({"matrix-parallel", namesOf(allWorkloads()),
                       zooSchemeNames(), "fixed", 1, 60000, true});
        return out;
    }();
    return specs;
}

Options
parseOptions(int argc, char **argv, const char *program,
             const char *description, const char *default_json)
{
    std::string workloads;
    for (const auto &spec : workloadSpecs())
        workloads += (workloads.empty() ? "" : " | ") + spec.name;

    ArgParser args(program, description);
    args.addOption("workload", "workload to run: " + workloads);
    args.addOption("seed", "seed of every synthesised trace (7 is the "
                           "held-out seed)",
                   "42");
    args.addOption("seconds", "time budget of the timed passes (they "
                              "run in full and warn when over it)",
                   "30");
    args.addOption("json", "result file", default_json);
    args.addOption("expected", "directory of committed cell digests",
                   CBWS_SUITE_EXPECTED_DIR);
    args.addOption("scratch", "directory for trace caches and "
                              "checkpoints",
                   ".bench_build/scratch");
    if (!args.parse(argc, argv))
        std::exit(2);
    if (args.helpRequested())
        std::exit(0);

    Options opts;
    for (const auto &spec : workloadSpecs())
        if (spec.name == args.get("workload"))
            opts.spec = &spec;
    if (!opts.spec) {
        std::fprintf(stderr, "%s: --workload must be one of: %s\n",
                     program, workloads.c_str());
        std::exit(2);
    }
    if (!parseUint(args.get("seed"), opts.seed)) {
        std::fprintf(stderr, "%s: --seed must be a whole number\n",
                     program);
        std::exit(2);
    }
    char *end = nullptr;
    const std::string secs = args.get("seconds");
    opts.seconds = std::strtod(secs.c_str(), &end);
    if (secs.empty() || *end != '\0' || !(opts.seconds > 0) ||
        opts.seconds > 3600) {
        std::fprintf(stderr, "%s: --seconds must be in (0, 3600]\n",
                     program);
        std::exit(2);
    }
    opts.insts = benchInstructionBudget(opts.spec->insts);
    opts.budgetOverridden = std::getenv("CBWS_BENCH_INSTS") != nullptr &&
                            opts.insts != opts.spec->insts;
    opts.jsonPath = args.get("json");
    opts.expectedDir = args.get("expected");
    opts.scratchDir = args.get("scratch") + "/" +
                      std::to_string(static_cast<long>(::getpid()));
    return opts;
}

void
keepFreedMemoryResident()
{
#ifdef __GLIBC__
    // 32 MiB is the largest mmap threshold glibc accepts on 64 bits.
    ::mallopt(M_MMAP_THRESHOLD, 32 << 20);
    ::mallopt(M_TRIM_THRESHOLD, 1 << 30);
#endif
}

std::uint64_t
nowNs()
{
    static const auto origin = std::chrono::steady_clock::now();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - origin)
            .count());
}

void
makeDirs(const std::string &dir)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    fatal_if(ec, "cannot create %s: %s", dir.c_str(),
             ec.message().c_str());
}

void
removeAll(const std::string &path)
{
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
}

std::uint64_t
bytesOnDisk(const std::string &path)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    if (fs::is_regular_file(path, ec))
        return fs::file_size(path, ec);
    std::uint64_t total = 0;
    for (const auto &entry : fs::recursive_directory_iterator(path, ec))
        if (entry.is_regular_file(ec))
            total += entry.file_size(ec);
    return total;
}

Inputs
setUp(const WorkloadSpec &spec, const Options &opts,
      const std::string &cache_dir, bool keep_traces)
{
    Inputs in;
    in.beginNs = nowNs();
    WorkloadParams params;
    params.maxInstructions = opts.insts;
    params.seed = opts.seed;
    TraceCache cache;
    if (spec.viaRunMatrix) {
        removeAll(cache_dir);
        cache = TraceCache(cache_dir);
        in.cacheDir = cache_dir;
    }
    for (const auto &name : spec.kernels) {
        Result<WorkloadPtr> found = findWorkloadChecked(name);
        fatal_if(!found.ok(), "%s", found.error().str().c_str());
        WorkloadPtr workload = std::move(found).value();
        Trace trace;
        SetupStamps stamps;
        stamps.begin = nowNs();
        trace.reserve(opts.insts + 512);
        workload->generate(trace, params);
        stamps.generated = stamps.stored = nowNs();
        if (spec.viaRunMatrix) {
            // The priming writes runMatrix later reads back.
            const Result<void> stored = cache.store(
                TraceCache::Key{name, opts.insts, opts.seed}, trace);
            fatal_if(!stored.ok(), "priming the trace cache: %s",
                     stored.error().str().c_str());
            stamps.stored = nowNs();
        }
        stamps.decoded = stamps.stored;
        if (!spec.viaRunMatrix || keep_traces) {
            trace.ensureDecoded();
            stamps.decoded = nowNs();
            in.traces.push_back(std::move(trace));
        }
        in.stamps.push_back(stamps);
        in.kernels.push_back(std::move(workload));
    }
    in.endNs = nowNs();
    return in;
}

SystemConfig
cellConfig(const WorkloadSpec &spec, std::size_t scheme)
{
    SystemConfig config; // Table II
    config.mem.dramBackend = spec.dram;
    config.mem.numCores = spec.cores;
    config.scheme = spec.schemes[scheme];
    return config;
}

std::uint64_t
committedInsts(const std::vector<SimResult> &cells)
{
    std::uint64_t total = 0;
    for (const auto &cell : cells)
        total += cell.core.instructions;
    return total;
}

Pass
runCells(const WorkloadSpec &spec, const Options &opts,
         const Inputs &inputs, Checkpoint *checkpoint,
         std::vector<MetricsRegistry> *scheme_metrics)
{
    Pass pass;
    const std::size_t num_schemes = spec.schemes.size();
    const std::uint64_t warmup = spec.warmup(opts.insts);
    pass.cells.resize(spec.cells());
    pass.cellSeconds.resize(spec.cells());
    const std::uint64_t start = nowNs();
    parallelFor(Jobs, spec.cells(), [&](std::size_t i) {
        const std::size_t k = i / num_schemes;
        const SystemConfig config = cellConfig(spec, i % num_schemes);
        SimProbes probes;
        if (scheme_metrics)
            probes.schemeMetrics = &(*scheme_metrics)[i];
        const std::uint64_t begin = nowNs();
        SimResult result;
        if (spec.cores > 1) {
            result = simulateMulti(
                std::vector<const Trace *>(spec.cores, &inputs.traces[k]),
                std::vector<std::string>(spec.cores, spec.kernels[k]),
                config, opts.insts, probes, warmup);
        } else {
            result = simulate(inputs.traces[k], config, opts.insts, probes,
                              warmup);
        }
        pass.cellSeconds[i] = secondsBetween(begin, nowNs());
        result.workload = spec.kernels[k];
        if (checkpoint) {
            const Result<void> appended = checkpoint->append(result);
            if (!appended.ok())
                warn("checkpoint append: %s",
                     appended.error().str().c_str());
        }
        pass.cells[i] = std::move(result);
    });
    pass.seconds = secondsBetween(start, nowNs());
    return pass;
}

Pass
runMatrixPass(const WorkloadSpec &spec, const Options &opts,
              const Inputs &inputs, const std::string &checkpoint_path)
{
    Pass pass;
    TraceCache cache(inputs.cacheDir);
    MatrixOptions mopts;
    mopts.jobs = Jobs;
    mopts.traceCache = &cache;
    mopts.checkpointPath = checkpoint_path;
    removeAll(checkpoint_path);
    SystemConfig base = cellConfig(spec, 0);
    base.scheme.clear();
    const std::uint64_t start = nowNs();
    const ExperimentMatrix matrix = runMatrix(
        inputs.kernels, spec.schemes, base, opts.insts, opts.seed, mopts);
    pass.seconds = secondsBetween(start, nowNs());
    for (const auto &row : matrix.rows)
        for (const auto &cell : row.byPrefetcher)
            pass.cells.push_back(cell);
    pass.traceCacheMisses = cache.misses();
    return pass;
}

namespace
{

/** FNV-1a 64 over 64-bit words. */
class Fnv
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int b = 0; b < 8; ++b) {
            h_ ^= (v >> (8 * b)) & 0xff;
            h_ *= 1099511628211ull;
        }
    }

    void
    add(const CoreStats &c)
    {
        for (std::uint64_t v :
             {c.cycles, c.instructions, c.memInstructions, c.branches,
              c.branchMispredicts, c.loopCycles, c.robFullStalls,
              c.lsqFullStalls})
            add(v);
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 1469598103934665603ull;
};

bool
sameCore(const CoreStats &a, const CoreStats &b)
{
    return a.cycles == b.cycles && a.instructions == b.instructions &&
           a.memInstructions == b.memInstructions &&
           a.branches == b.branches &&
           a.branchMispredicts == b.branchMispredicts &&
           a.loopCycles == b.loopCycles &&
           a.robFullStalls == b.robFullStalls &&
           a.lsqFullStalls == b.lsqFullStalls;
}

/** Why @p r breaks a lifecycle conservation law (empty: it holds). */
std::string
conservationViolation(const SimResult &r)
{
    for (unsigned s = 0; s < NumPfSources; ++s) {
        const PrefetchLifecycle &l = r.mem.pfLife[s];
        if (l.issued != l.dropped + l.merged + l.filled)
            return "issued != dropped+merged+filled for source " +
                   std::to_string(s);
        if (l.filled != l.demandHitTimely + l.demandHitLate +
                            l.evictedUnused + l.residentAtEnd)
            return "filled != timely+late+evicted+resident for "
                   "source " +
                   std::to_string(s);
    }
    return "";
}

} // anonymous namespace

std::uint64_t
digest(const SimResult &r)
{
    Fnv h;
    h.add(r.cores);
    h.add(r.core);
    const HierarchyStats &m = r.mem;
    for (std::uint64_t v :
         {m.l1dAccesses, m.l1dMisses, m.l1iAccesses, m.l1iMisses,
          m.demandL2Accesses, m.llcDemandMisses, m.wrongPrefetches,
          m.prefetchesRequested, m.prefetchesIssued,
          m.prefetchesFiltered, m.prefetchesDropped, m.dramBytesRead,
          m.dramBytesWritten, m.mshrStalls, m.crossCorePollutionMisses,
          m.l2BankConflicts})
        h.add(v);
    for (std::uint64_t v : m.classCounts)
        h.add(v);
    const DramStats &d = m.dram;
    for (std::uint64_t v :
         {d.reads, d.writes, d.rowHits, d.rowMisses, d.rowClosed,
          d.activates, d.prefetchesDeferred, d.busBusyCycles,
          d.readQueueDepthSum})
        h.add(v);
    for (const PrefetchLifecycle &l : m.pfLife)
        for (std::uint64_t v :
             {l.issued, l.dropped, l.merged, l.filled, l.demandHitTimely,
              l.demandHitLate, l.evictedUnused, l.residentAtEnd,
              l.latenessCycles})
            h.add(v);
    for (const CoreSliceResult &slice : r.perCore)
        h.add(slice.core);
    return h.value();
}

bool
sameResult(const SimResult &a, const SimResult &b)
{
    if (a.prefetcher != b.prefetcher || a.dramBackend != b.dramBackend ||
        a.cores != b.cores ||
        a.prefetcherStorageBits != b.prefetcherStorageBits ||
        !sameCore(a.core, b.core) || a.mem != b.mem ||
        a.perCore.size() != b.perCore.size())
        return false;
    for (std::size_t c = 0; c < a.perCore.size(); ++c)
        if (!sameCore(a.perCore[c].core, b.perCore[c].core) ||
            !(a.perCore[c].mem == b.perCore[c].mem))
            return false;
    return true;
}

Gate::Gate(const WorkloadSpec &spec, const Options &opts)
    : spec_(spec), opts_(opts)
{
    if (opts.budgetOverridden || std::getenv("CBWS_UPDATE_GOLDEN"))
        return; // no digests apply, or they are being rewritten
    std::ifstream in(expectedPath());
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string workload, kernel, scheme, hex;
        if (line.empty() || line[0] == '#' ||
            !(fields >> workload >> kernel >> scheme >> hex) ||
            workload != spec.name)
            continue;
        expected_[kernel + " " + scheme] =
            std::strtoull(hex.c_str(), nullptr, 16);
    }
}

std::string
Gate::expectedPath() const
{
    return opts_.expectedDir + "/seed-" + std::to_string(opts_.seed) +
           ".txt";
}

std::string
Gate::cellName(std::size_t i) const
{
    const std::size_t n = spec_.schemes.size();
    return spec_.kernels[i / n] + " " + spec_.schemes[i % n];
}

void
Gate::fail(const std::string &why)
{
    ++failed_;
    if (messages_.size() < 20)
        messages_.push_back(why);
}

void
Gate::check(const std::vector<SimResult> &cells, const char *what)
{
    attempted_ += cells.size();
    const bool first = reference_.empty();
    const bool warm_start = spec_.warmup(opts_.insts) == 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const SimResult &r = cells[i];
        const std::uint64_t d = digest(r);
        std::string why;
        if (!first && d != reference_[i]) {
            why = "differs from the first pass";
        } else if (!expected_.empty()) {
            const auto it = expected_.find(cellName(i));
            if (it == expected_.end())
                why = "no committed digest";
            else if (it->second != d)
                why = "digest differs from " + expectedPath();
        }
        if (why.empty() && warm_start) {
            why = conservationViolation(r);
            if (why.empty() &&
                r.core.instructions != opts_.insts * spec_.cores)
                why = "committed " + std::to_string(r.core.instructions) +
                      " of " + std::to_string(opts_.insts * spec_.cores) +
                      " instructions";
        }
        if (!why.empty())
            fail(std::string(what) + ": " + cellName(i) + ": " + why);
        if (first)
            reference_.push_back(d);
    }
}

bool
Gate::updateGolden() const
{
    if (!std::getenv("CBWS_UPDATE_GOLDEN") || opts_.budgetOverridden ||
        reference_.empty())
        return false;
    // Keep the other workloads' lines; rewrite this one's in cell
    // order, all in workloadSpecs() order.
    std::map<std::string, std::vector<std::string>> lines;
    {
        std::ifstream in(expectedPath());
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty() || line[0] == '#')
                continue;
            const std::string workload = line.substr(0, line.find(' '));
            if (workload != spec_.name)
                lines[workload].push_back(line);
        }
    }
    for (std::size_t i = 0; i < reference_.size(); ++i) {
        char hex[17];
        std::snprintf(hex, sizeof(hex), "%016llx",
                      static_cast<unsigned long long>(reference_[i]));
        lines[spec_.name].push_back(spec_.name + " " + cellName(i) + " " +
                                    hex);
    }
    std::ofstream out(expectedPath());
    out << "# cbws_bench cell digests at the default budgets, seed "
        << opts_.seed << ": workload kernel scheme fnv1a64\n"
        << "# Regenerate with CBWS_UPDATE_GOLDEN=1 (see README.md).\n";
    for (const auto &spec : workloadSpecs())
        for (const auto &line : lines[spec.name])
            out << line << '\n';
    fatal_if(!out.good(), "cannot write %s", expectedPath().c_str());
    return true;
}

double
speedupCbwsSmsVsSms(const WorkloadSpec &spec,
                    const std::vector<SimResult> &cells,
                    const Inputs &inputs, bool mi_only)
{
    const auto column = [&](const char *scheme) {
        const auto it =
            std::find(spec.schemes.begin(), spec.schemes.end(), scheme);
        panic_if(it == spec.schemes.end(), "%s has no %s column",
                 spec.name.c_str(), scheme);
        return static_cast<std::size_t>(it - spec.schemes.begin());
    };
    const std::size_t cbws_sms = column("CBWS+SMS");
    const std::size_t sms = column("SMS");
    const std::size_t n = spec.schemes.size();
    double log_sum = 0.0;
    std::size_t count = 0;
    for (std::size_t k = 0; k < spec.kernels.size(); ++k) {
        if (mi_only && !inputs.kernels[k]->memoryIntensive())
            continue;
        const double r =
            ratio(cells[k * n + cbws_sms].ipc(), cells[k * n + sms].ipc());
        if (r > 0) {
            log_sum += std::log(r);
            ++count;
        }
    }
    return count ? std::exp(log_sum / static_cast<double>(count)) : 0.0;
}

double
peakRssMb()
{
    struct rusage usage;
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 50.0);
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    if (p == 50.0 && values.size() % 2 == 0) {
        const std::size_t h = values.size() / 2;
        return (values[h - 1] + values[h]) / 2.0;
    }
    const double rank = std::ceil(p / 100.0 *
                                  static_cast<double>(values.size()));
    const std::size_t idx =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return values[std::min(idx, values.size() - 1)];
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    JsonWriter w;
    w.value(s);
    return w.str();
}

void
report(const Options &opts, const std::vector<Metric> &metrics,
       const Gate &gate, const std::string &extra_json)
{
    const std::string &workload = opts.spec->name;
    std::string metrics_json = "{";
    for (const Metric &m : metrics) {
        std::printf("%s %s %.10g %s\n", workload.c_str(), m.name.c_str(),
                    m.value, m.unit.c_str());
        if (metrics_json.size() > 1)
            metrics_json += ", ";
        metrics_json += jsonString(m.name) + ": {\"value\": " +
                        jsonNumber(m.value) +
                        ", \"unit\": " + jsonString(m.unit) + "}";
    }
    metrics_json += "}";
    for (const auto &message : gate.messages())
        std::fprintf(stderr, "FAILED %s\n", message.c_str());

    const bool correct = gate.failed() == 0;
    JsonWriter provenance;
    writeProvenance(provenance);
    std::string failures = "[";
    for (const auto &message : gate.messages())
        failures += (failures.size() > 1 ? ", " : "") + jsonString(message);
    failures += "]";

    std::ofstream out(opts.jsonPath);
    out << "{\"bench\": \"suite\", \"schema_version\": 1"
        << ", \"provenance\": " << provenance.str()
        << ", \"workload\": " << jsonString(workload)
        << ", \"seed\": " << opts.seed
        << ", \"seconds\": " << jsonNumber(opts.seconds)
        << ", \"insts\": " << opts.insts
        << ", \"budget_overridden\": "
        << (opts.budgetOverridden ? "true" : "false")
        << ", \"digests_checked\": "
        << (gate.digestsChecked() ? "true" : "false")
        << ", \"nproc\": " << ThreadPool::hardwareJobs()
        << ", \"jobs\": " << Jobs
        << ", \"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << gate.attempted()
        << ", \"failed\": " << gate.failed() << ", \"fail_frac\": "
        << jsonNumber(ratio(static_cast<double>(gate.failed()),
                            static_cast<double>(gate.attempted())))
        << ", \"failures\": " << failures
        << ", \"metrics\": " << metrics_json << extra_json << "}\n";
    if (!out.good())
        warn("could not write %s", opts.jsonPath.c_str());

    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false", gate.attempted(),
                gate.failed(), metrics_json.c_str());
    std::fflush(stdout);
}

} // namespace suite
} // namespace cbws
