#include "serve/worker.hh"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <memory>
#include <unistd.h>

#include "base/faultinject.hh"
#include "base/json.hh"
#include "base/logging.hh"
#include "base/tuning.hh"
#include "sim/checkpoint.hh"
#include "sim/report.hh"
#include "workloads/registry.hh"

namespace cbws
{
namespace serve
{

namespace
{

/** Write all of @p line + '\n' to @p fd, tolerating short writes.
 *  Progress is advisory: on a broken pipe (daemon died) the worker
 *  keeps simulating — the checkpoint is the durable record. */
void
writeProgressLine(int fd, const std::string &line)
{
    if (fd < 0)
        return;
    std::string buf = line;
    buf.push_back('\n');
    std::size_t off = 0;
    while (off < buf.size()) {
        const ssize_t n =
            ::write(fd, buf.data() + off, buf.size() - off);
        if (n > 0) {
            off += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        return;
    }
}

std::string
progressLine(std::size_t cell, const SimResult &res, bool restored)
{
    JsonWriter w;
    w.beginObject();
    w.field("cell", static_cast<std::uint64_t>(cell));
    w.field("workload", res.workload);
    w.field("scheme", res.prefetcher);
    w.field("ipc", res.ipc());
    w.field("mpki", res.mpki());
    w.field("insts", res.core.instructions);
    w.field("restored", restored);
    w.endObject();
    return w.str();
}

} // anonymous namespace

SystemConfig
configFor(const JobSpec &spec)
{
    SystemConfig config;
    config.mem.numCores = spec.cores;
    config.mem.dramBackend = spec.dramBackend;
    config.pfOpts = spec.pfOpts;
    return config;
}

Result<std::vector<WorkloadPtr>>
resolveWorkloads(const JobSpec &spec)
{
    std::vector<WorkloadPtr> workloads;
    workloads.reserve(spec.workloads.size());
    for (const auto &name : spec.workloads) {
        WorkloadPtr w = findWorkload(name);
        if (!w)
            return Error(Errc::NotFound,
                         "workload '" + name + "' not in registry");
        workloads.push_back(std::move(w));
    }
    return workloads;
}

std::string
shardCheckpointPath(const std::string &job_dir, unsigned shard)
{
    return job_dir + "/shard-" + std::to_string(shard) + ".ckpt";
}

Checkpoint::Header
shardHeader(const JobSpec &spec)
{
    Checkpoint::Header header;
    header.insts = spec.insts;
    header.seed = spec.seed;
    header.fingerprint = checkpointFingerprint(
        spec.workloads, spec.schemes, configTagFor(spec));
    return header;
}

int
runWorkerShard(const JobSpec &spec, const std::string &job_dir,
               unsigned shard, unsigned num_shards, int progress_fd)
{
    panic_if(num_shards == 0, "runWorkerShard: zero shards");
    // The daemon SIGTERMs workers to drain gracefully; the handler
    // just sets the flag checked at each cell boundary below.
    installMatrixSignalHandlers();
    clearMatrixInterrupt();

    Result<std::vector<WorkloadPtr>> resolved = resolveWorkloads(spec);
    if (!resolved.ok()) {
        warn("worker[%u]: %s", shard,
             resolved.error().str().c_str());
        return 1;
    }
    const std::vector<WorkloadPtr> workloads =
        std::move(resolved).value();
    const SystemConfig config = configFor(spec);

    Checkpoint checkpoint;
    Result<void> opened = checkpoint.open(
        shardCheckpointPath(job_dir, shard), shardHeader(spec));
    if (!opened.ok()) {
        warn("worker[%u]: %s", shard, opened.error().str().c_str());
        return 1;
    }

    WorkloadParams params;
    params.maxInstructions = spec.insts;
    params.seed = spec.seed;
    const std::uint64_t warmup = spec.insts / 4;
    const std::size_t num_kinds = spec.schemes.size();
    const std::size_t total = spec.cellCount();

    // Traces are synthesised lazily, once per workload this shard
    // touches: round-robin sharding means a shard typically needs
    // every workload, but a resumed shard may skip rows entirely.
    std::vector<Trace> traces(workloads.size());
    std::vector<char> have_trace(workloads.size(), 0);
    const bool batch_decode = Tuning::get().batchDecode;

    bool interrupted = false;
    for (std::size_t i = shard; i < total; i += num_shards) {
        if (matrixInterruptRequested()) {
            interrupted = true;
            break;
        }
        const std::size_t w = i / num_kinds;
        const std::size_t k = i % num_kinds;
        const std::string &workload = spec.workloads[w];
        const std::string &scheme = spec.schemes[k];

        if (const SimResult *restored =
                checkpoint.find(workload, scheme)) {
            writeProgressLine(progress_fd,
                              progressLine(i, *restored, true));
            continue;
        }

        if (!have_trace[w]) {
            traces[w].reserve(spec.insts + 512);
            workloads[w]->generate(traces[w], params);
            if (batch_decode)
                traces[w].ensureDecoded();
            have_trace[w] = 1;
        }

        SystemConfig cell_config = config;
        cell_config.scheme = scheme;
        const std::vector<const Trace *> core_traces(
            cell_config.mem.numCores, &traces[w]);
        const std::vector<std::string> core_names(
            cell_config.mem.numCores, workload);
        SimResult res = simulateMulti(core_traces, core_names,
                                      cell_config, spec.insts,
                                      SimProbes(), warmup);
        res.workload = workload;

        Result<void> appended = checkpoint.append(res);
        if (!appended.ok())
            warn("worker[%u]: cell (%s, %s) not checkpointed (%s)",
                 shard, workload.c_str(), scheme.c_str(),
                 appended.error().str().c_str());
        writeProgressLine(progress_fd, progressLine(i, res, false));

        // Chaos hook: under CBWS_FAULT=serve-worker-kill@n the worker
        // SIGKILLs itself right after completing (and checkpointing)
        // its n-th cell — the deterministic stand-in for the operator
        // kill -9 the supervisor must survive.
        if (FaultInjector::instance().shouldFire(
                FaultSite::ServeWorkerKill)) {
            checkpoint.sync();
            ::raise(SIGKILL);
        }
    }

    Result<void> sealed = checkpoint.sync();
    if (!sealed.ok()) {
        warn("worker[%u]: checkpoint seal failed (%s)", shard,
             sealed.error().str().c_str());
        return 1;
    }
    return interrupted ? 130 : 0;
}

Result<std::vector<SimResult>>
mergeShards(const JobSpec &spec, const std::string &job_dir,
            unsigned num_shards)
{
    const std::size_t num_kinds = spec.schemes.size();
    const std::size_t total = spec.cellCount();
    std::vector<SimResult> cells(total);

    // Open every shard read-for-resume: intact cells load, torn tails
    // drop. Sharding is index % num_shards, so cell i lives in shard
    // checkpoint i % num_shards — but find() is keyed by names, so a
    // cell that migrated across a reshard is still found.
    std::vector<std::unique_ptr<Checkpoint>> shards;
    for (unsigned s = 0; s < num_shards; ++s) {
        auto ckpt = std::unique_ptr<Checkpoint>(new Checkpoint());
        Result<void> opened = ckpt->open(
            shardCheckpointPath(job_dir, s), shardHeader(spec));
        if (!opened.ok())
            return opened.error();
        shards.push_back(std::move(ckpt));
    }

    for (std::size_t i = 0; i < total; ++i) {
        const std::string &workload =
            spec.workloads[i / num_kinds];
        const std::string &scheme = spec.schemes[i % num_kinds];
        const SimResult *found = nullptr;
        for (unsigned s = 0; s < num_shards && !found; ++s)
            found = shards[(i + s) % num_shards]->find(workload,
                                                       scheme);
        if (!found)
            return Error(Errc::Corrupt,
                         "mergeShards: cell (" + workload + ", " +
                             scheme + ") missing from " +
                             std::to_string(num_shards) +
                             " shard checkpoint(s)");
        cells[i] = *found;
    }
    return cells;
}

std::vector<SimResult>
flattenMatrix(const ExperimentMatrix &matrix)
{
    std::vector<SimResult> cells;
    for (const auto &row : matrix.rows)
        for (const auto &res : row.byPrefetcher)
            cells.push_back(res);
    return cells;
}

Result<std::vector<SimResult>>
runJobSerial(const JobSpec &spec)
{
    Result<std::vector<WorkloadPtr>> resolved = resolveWorkloads(spec);
    if (!resolved.ok())
        return resolved.error();
    MatrixOptions options;
    options.jobs = 1;
    ExperimentMatrix matrix =
        runMatrix(resolved.value(), spec.schemes, configFor(spec),
                  spec.insts, spec.seed, options);
    return flattenMatrix(matrix);
}

std::string
resultJson(const std::vector<SimResult> &cells)
{
    return toJson(cells);
}

} // namespace serve
} // namespace cbws
