#include "sim/checkpoint.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <unistd.h>

#include "base/faultinject.hh"
#include "base/json.hh"
#include "base/jsonparse.hh"
#include "base/logging.hh"
#include "base/profiler.hh"
#include "base/retry.hh"
#include "base/version.hh"

namespace cbws
{

namespace
{

constexpr std::uint64_t FnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t FnvPrime = 0x100000001b3ull;

std::uint64_t
fnv1a(const std::string &text, std::uint64_t hash = FnvOffset)
{
    for (char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= FnvPrime;
    }
    return hash;
}

std::string
hex16(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/**
 * Seal a JSON object line with its own checksum: the crc member holds
 * FNV-1a over the object text *without* that member. Verification
 * strips the crc member back out and re-hashes.
 */
std::string
sealLine(const std::string &object_text)
{
    const std::uint64_t crc = fnv1a(object_text);
    std::string out = object_text;
    out.insert(out.size() - 1, ",\"crc\":\"" + hex16(crc) + "\"");
    return out;
}

bool
verifySeal(const std::string &line, std::string &object_text)
{
    const std::string marker = ",\"crc\":\"";
    const std::size_t at = line.rfind(marker);
    if (at == std::string::npos)
        return false;
    const std::size_t hex_at = at + marker.size();
    // ...,"crc":"0123456789abcdef"}
    if (line.size() != hex_at + 16 + 2 || line.back() != '}' ||
        line[line.size() - 2] != '"')
        return false;
    const std::string hex = line.substr(hex_at, 16);
    object_text = line.substr(0, at) + "}";
    return hex == hex16(fnv1a(object_text));
}

void
writeLifecycle(JsonWriter &w, const PrefetchLifecycle &life)
{
    w.beginArray();
    w.value(life.issued);
    w.value(life.dropped);
    w.value(life.merged);
    w.value(life.filled);
    w.value(life.demandHitTimely);
    w.value(life.demandHitLate);
    w.value(life.evictedUnused);
    w.value(life.residentAtEnd);
    w.value(life.latenessCycles);
    w.endArray();
}

bool
readLifecycle(const JsonValue &v, PrefetchLifecycle &life)
{
    if (v.type != JsonValue::Type::Array || v.array.size() != 9)
        return false;
    std::uint64_t *fields[] = {
        &life.issued,        &life.dropped,
        &life.merged,        &life.filled,
        &life.demandHitTimely, &life.demandHitLate,
        &life.evictedUnused, &life.residentAtEnd,
        &life.latenessCycles,
    };
    for (std::size_t i = 0; i < 9; ++i) {
        if (v.array[i].type != JsonValue::Type::Uint)
            return false;
        *fields[i] = v.array[i].uintValue;
    }
    return true;
}

template <std::size_t N>
bool
readUintArray(const JsonValue *v, std::uint64_t (&out)[N])
{
    if (!v || v->type != JsonValue::Type::Array || v->array.size() != N)
        return false;
    for (std::size_t i = 0; i < N; ++i) {
        if (v->array[i].type != JsonValue::Type::Uint)
            return false;
        out[i] = v->array[i].uintValue;
    }
    return true;
}

std::string
headerLine(const Checkpoint::Header &header)
{
    JsonWriter w;
    w.beginObject();
    w.field("schema_version",
            static_cast<std::uint64_t>(CheckpointSchemaVersion));
    w.field("type", "header");
    w.field("format", "cbws-checkpoint");
    w.field("insts", header.insts);
    w.field("seed", header.seed);
    w.field("fingerprint", hex16(header.fingerprint));
    w.endObject();
    return sealLine(w.str());
}

/**
 * Sealed informational record stamping which build wrote the file.
 * Readers skip it silently (it is never part of resume state), so a
 * checkpoint written by one build resumes fine under another — the
 * header fingerprint, not the provenance, decides compatibility.
 */
std::string
provenanceLine()
{
    const BuildInfo &info = buildInfo();
    JsonWriter w;
    w.beginObject();
    w.field("schema_version",
            static_cast<std::uint64_t>(CheckpointSchemaVersion));
    w.field("type", "provenance");
    w.field("git_sha", info.gitSha);
    w.field("compiler", info.compiler);
    w.field("build_type", info.buildType);
    w.endObject();
    return sealLine(w.str());
}

} // anonymous namespace

std::string
checkpointCellLine(const SimResult &r)
{
    JsonWriter w;
    w.beginObject();
    w.field("schema_version",
            static_cast<std::uint64_t>(CheckpointSchemaVersion));
    w.field("type", "cell");
    w.field("workload", r.workload);
    w.field("prefetcher", r.prefetcher);
    w.field("storage_bits", r.prefetcherStorageBits);

    w.key("core");
    w.beginArray();
    w.value(r.core.cycles);
    w.value(r.core.instructions);
    w.value(r.core.memInstructions);
    w.value(r.core.branches);
    w.value(r.core.branchMispredicts);
    w.value(r.core.loopCycles);
    w.value(r.core.robFullStalls);
    w.value(r.core.lsqFullStalls);
    w.endArray();

    w.key("mem");
    w.beginArray();
    w.value(r.mem.l1dAccesses);
    w.value(r.mem.l1dMisses);
    w.value(r.mem.l1iAccesses);
    w.value(r.mem.l1iMisses);
    w.value(r.mem.demandL2Accesses);
    w.value(r.mem.llcDemandMisses);
    w.value(r.mem.wrongPrefetches);
    w.value(r.mem.prefetchesRequested);
    w.value(r.mem.prefetchesIssued);
    w.value(r.mem.prefetchesFiltered);
    w.value(r.mem.prefetchesDropped);
    w.value(r.mem.dramBytesRead);
    w.value(r.mem.dramBytesWritten);
    w.value(r.mem.mshrStalls);
    w.value(r.mem.crossCorePollutionMisses);
    w.value(r.mem.l2BankConflicts);
    w.endArray();

    if (r.cores > 1) {
        w.field("cores", static_cast<std::uint64_t>(r.cores));
        w.key("per_core");
        w.beginArray();
        for (const auto &slice : r.perCore) {
            w.beginObject();
            w.field("workload", slice.workload);
            w.key("core");
            w.beginArray();
            w.value(slice.core.cycles);
            w.value(slice.core.instructions);
            w.value(slice.core.memInstructions);
            w.value(slice.core.branches);
            w.value(slice.core.branchMispredicts);
            w.value(slice.core.loopCycles);
            w.value(slice.core.robFullStalls);
            w.value(slice.core.lsqFullStalls);
            w.endArray();
            w.key("mem");
            w.beginArray();
            w.value(slice.mem.l1dAccesses);
            w.value(slice.mem.l1dMisses);
            w.value(slice.mem.l1iAccesses);
            w.value(slice.mem.l1iMisses);
            w.value(slice.mem.demandL2Accesses);
            w.value(slice.mem.llcDemandMisses);
            w.value(slice.mem.prefetchesRequested);
            w.value(slice.mem.prefetchesIssued);
            w.value(slice.mem.pollutionVictimMisses);
            w.value(slice.mem.pollutionCausedMisses);
            w.value(slice.mem.l2ResidentLines);
            w.endArray();
            w.endObject();
        }
        w.endArray();
    }

    w.key("class_counts");
    w.beginArray();
    for (std::uint64_t c : r.mem.classCounts)
        w.value(c);
    w.endArray();

    w.key("lateness_hist");
    w.beginArray();
    for (std::uint64_t c : r.mem.latenessHist)
        w.value(c);
    w.endArray();

    w.key("pf_life");
    w.beginArray();
    for (const auto &life : r.mem.pfLife)
        writeLifecycle(w, life);
    w.endArray();

    // DRAM backend counters (per-bank vectors are diagnostics and
    // intentionally not checkpointed; they reset to zero on resume).
    w.field("dram_backend", r.dramBackend);
    w.key("dram");
    w.beginArray();
    w.value(r.mem.dram.reads);
    w.value(r.mem.dram.writes);
    w.value(r.mem.dram.rowHits);
    w.value(r.mem.dram.rowMisses);
    w.value(r.mem.dram.rowClosed);
    w.value(r.mem.dram.activates);
    w.value(r.mem.dram.fawStalls);
    w.value(r.mem.dram.refreshStalls);
    w.value(r.mem.dram.prefetchesDeferred);
    w.value(r.mem.dram.deferralCycles);
    w.value(r.mem.dram.readQueueFullStalls);
    w.value(r.mem.dram.writeDrains);
    w.value(r.mem.dram.busBusyCycles);
    w.value(r.mem.dram.readQueueDepthSum);
    w.value(r.mem.dram.writeQueueDepthSum);
    w.endArray();

    w.endObject();
    return sealLine(w.str());
}

Result<SimResult>
parseCheckpointCell(const std::string &line)
{
    std::string object_text;
    if (!verifySeal(line, object_text))
        return Error(Errc::Corrupt, "checkpoint cell checksum mismatch");

    Result<JsonValue> parsed = parseJson(object_text);
    if (!parsed.ok())
        return parsed.error();
    const JsonValue &v = parsed.value();

    if (v.uintOr("schema_version", 0) != CheckpointSchemaVersion)
        return Error(Errc::VersionMismatch,
                     "checkpoint cell schema_version " +
                         std::to_string(v.uintOr("schema_version", 0)) +
                         " (expected " +
                         std::to_string(CheckpointSchemaVersion) + ")");
    if (v.strOr("type", "") != "cell")
        return Error(Errc::Corrupt, "not a checkpoint cell line");

    SimResult r;
    r.workload = v.strOr("workload", "");
    r.prefetcher = v.strOr("prefetcher", "");
    if (r.workload.empty() || r.prefetcher.empty())
        return Error(Errc::Corrupt, "checkpoint cell missing keys");
    r.prefetcherStorageBits = v.uintOr("storage_bits", 0);

    const JsonValue *core = v.find("core");
    std::uint64_t core_fields[8];
    if (!readUintArray(core, core_fields))
        return Error(Errc::Corrupt, "checkpoint cell bad core array");
    r.core.cycles = core_fields[0];
    r.core.instructions = core_fields[1];
    r.core.memInstructions = core_fields[2];
    r.core.branches = core_fields[3];
    r.core.branchMispredicts = core_fields[4];
    r.core.loopCycles = core_fields[5];
    r.core.robFullStalls = core_fields[6];
    r.core.lsqFullStalls = core_fields[7];

    const JsonValue *mem = v.find("mem");
    std::uint64_t mem_fields[16];
    if (!readUintArray(mem, mem_fields))
        return Error(Errc::Corrupt, "checkpoint cell bad mem array");
    r.mem.l1dAccesses = mem_fields[0];
    r.mem.l1dMisses = mem_fields[1];
    r.mem.l1iAccesses = mem_fields[2];
    r.mem.l1iMisses = mem_fields[3];
    r.mem.demandL2Accesses = mem_fields[4];
    r.mem.llcDemandMisses = mem_fields[5];
    r.mem.wrongPrefetches = mem_fields[6];
    r.mem.prefetchesRequested = mem_fields[7];
    r.mem.prefetchesIssued = mem_fields[8];
    r.mem.prefetchesFiltered = mem_fields[9];
    r.mem.prefetchesDropped = mem_fields[10];
    r.mem.dramBytesRead = mem_fields[11];
    r.mem.dramBytesWritten = mem_fields[12];
    r.mem.mshrStalls = mem_fields[13];
    r.mem.crossCorePollutionMisses = mem_fields[14];
    r.mem.l2BankConflicts = mem_fields[15];

    r.cores = static_cast<unsigned>(v.uintOr("cores", 1));
    if (r.cores > 1) {
        const JsonValue *per_core = v.find("per_core");
        if (!per_core || per_core->type != JsonValue::Type::Array ||
            per_core->array.size() != r.cores)
            return Error(Errc::Corrupt,
                         "checkpoint cell bad per_core array");
        r.mem.perCore.resize(r.cores);
        r.perCore.resize(r.cores);
        for (unsigned c = 0; c < r.cores; ++c) {
            const JsonValue &pc = per_core->array[c];
            CoreSliceResult &slice = r.perCore[c];
            slice.workload = pc.strOr("workload", "");
            std::uint64_t cf[8];
            if (!readUintArray(pc.find("core"), cf))
                return Error(Errc::Corrupt,
                             "checkpoint cell bad per_core core "
                             "array");
            slice.core.cycles = cf[0];
            slice.core.instructions = cf[1];
            slice.core.memInstructions = cf[2];
            slice.core.branches = cf[3];
            slice.core.branchMispredicts = cf[4];
            slice.core.loopCycles = cf[5];
            slice.core.robFullStalls = cf[6];
            slice.core.lsqFullStalls = cf[7];
            std::uint64_t mf[11];
            if (!readUintArray(pc.find("mem"), mf))
                return Error(Errc::Corrupt,
                             "checkpoint cell bad per_core mem "
                             "array");
            slice.mem.l1dAccesses = mf[0];
            slice.mem.l1dMisses = mf[1];
            slice.mem.l1iAccesses = mf[2];
            slice.mem.l1iMisses = mf[3];
            slice.mem.demandL2Accesses = mf[4];
            slice.mem.llcDemandMisses = mf[5];
            slice.mem.prefetchesRequested = mf[6];
            slice.mem.prefetchesIssued = mf[7];
            slice.mem.pollutionVictimMisses = mf[8];
            slice.mem.pollutionCausedMisses = mf[9];
            slice.mem.l2ResidentLines = mf[10];
            r.mem.perCore[c] = slice.mem;
        }
    }

    if (!readUintArray(v.find("class_counts"), r.mem.classCounts))
        return Error(Errc::Corrupt,
                     "checkpoint cell bad class_counts array");
    if (!readUintArray(v.find("lateness_hist"), r.mem.latenessHist))
        return Error(Errc::Corrupt,
                     "checkpoint cell bad lateness_hist array");

    const JsonValue *pf_life = v.find("pf_life");
    if (!pf_life || pf_life->type != JsonValue::Type::Array ||
        pf_life->array.size() != NumPfSources)
        return Error(Errc::Corrupt,
                     "checkpoint cell bad pf_life array");
    for (unsigned s = 0; s < NumPfSources; ++s)
        if (!readLifecycle(pf_life->array[s], r.mem.pfLife[s]))
            return Error(Errc::Corrupt,
                         "checkpoint cell bad pf_life entry");

    r.dramBackend = v.strOr("dram_backend", "fixed");
    std::uint64_t dram_fields[15];
    if (!readUintArray(v.find("dram"), dram_fields))
        return Error(Errc::Corrupt, "checkpoint cell bad dram array");
    r.mem.dram.reads = dram_fields[0];
    r.mem.dram.writes = dram_fields[1];
    r.mem.dram.rowHits = dram_fields[2];
    r.mem.dram.rowMisses = dram_fields[3];
    r.mem.dram.rowClosed = dram_fields[4];
    r.mem.dram.activates = dram_fields[5];
    r.mem.dram.fawStalls = dram_fields[6];
    r.mem.dram.refreshStalls = dram_fields[7];
    r.mem.dram.prefetchesDeferred = dram_fields[8];
    r.mem.dram.deferralCycles = dram_fields[9];
    r.mem.dram.readQueueFullStalls = dram_fields[10];
    r.mem.dram.writeDrains = dram_fields[11];
    r.mem.dram.busBusyCycles = dram_fields[12];
    r.mem.dram.readQueueDepthSum = dram_fields[13];
    r.mem.dram.writeQueueDepthSum = dram_fields[14];
    return r;
}

std::uint64_t
checkpointFingerprint(const std::vector<std::string> &workloads,
                      const std::vector<std::string> &prefetchers,
                      const std::string &config_tag)
{
    std::uint64_t hash = FnvOffset;
    for (const auto &w : workloads)
        hash = fnv1a(w + "\x1f", hash);
    hash = fnv1a("\x1e", hash);
    for (const auto &p : prefetchers)
        hash = fnv1a(p + "\x1f", hash);
    if (!config_tag.empty())
        hash = fnv1a("\x1e" + config_tag, hash);
    return hash;
}

Checkpoint::Header
matrixCheckpointHeader(const std::vector<std::string> &workloads,
                       const std::vector<std::string> &schemes,
                       const SystemConfig &config, std::uint64_t insts,
                       std::uint64_t seed)
{
    // The DRAM backend changes every completion cycle, the core count
    // changes every counter, and pf-opts change the prefetchers
    // themselves; the tag folds all three into the fingerprint.
    std::string config_tag = config.mem.dramBackend;
    if (config.mem.numCores > 1)
        config_tag += "+cores" + std::to_string(config.mem.numCores);
    if (!config.pfOpts.empty()) {
        std::vector<std::string> opts = config.pfOpts;
        std::sort(opts.begin(), opts.end());
        config_tag += "+opt:";
        for (const auto &opt : opts)
            config_tag += opt + ",";
    }
    Checkpoint::Header header;
    header.insts = insts;
    header.seed = seed;
    header.fingerprint =
        checkpointFingerprint(workloads, schemes, config_tag);
    return header;
}

Result<std::vector<SimResult>>
mergeCheckpoints(const std::vector<std::string> &paths,
                 const Checkpoint::Header &header,
                 const std::vector<std::string> &workloads,
                 const std::vector<std::string> &schemes)
{
    std::vector<Checkpoint> shards(paths.size());
    for (std::size_t s = 0; s < paths.size(); ++s) {
        Result<void> loaded = shards[s].load(paths[s], header);
        if (!loaded.ok())
            return loaded.error();
    }
    // Cells are looked up by name, not by shard index, so the merge
    // does not care how the cells were split or in what order the
    // shard files are listed.
    std::vector<SimResult> cells;
    cells.reserve(workloads.size() * schemes.size());
    for (const auto &workload : workloads) {
        for (const auto &scheme : schemes) {
            const SimResult *found = nullptr;
            for (const auto &shard : shards)
                if ((found = shard.find(workload, scheme)))
                    break;
            if (!found)
                return Error(Errc::Corrupt,
                             "cell (" + workload + ", " + scheme +
                                 ") is in none of the " +
                                 std::to_string(paths.size()) +
                                 " merged checkpoint(s); finish its "
                                 "shard first");
            cells.push_back(*found);
        }
    }
    return cells;
}

Checkpoint::~Checkpoint()
{
    if (file_)
        std::fclose(file_);
}

Result<void>
Checkpoint::readCells(const std::string &path, const Header &header,
                      bool &existing)
{
    const std::string expected_header = headerLine(header);
    existing = false;
    std::ifstream in(path);
    std::string line;
    std::size_t lineno = 0;
    bool header_seen = false;
    while (in && std::getline(in, line)) {
        ++lineno;
        if (line.empty())
            continue;
        existing = true;
        if (!header_seen) {
            // First line must be the matching header. Parse it for a
            // precise diagnostic before the exact compare.
            std::string object_text;
            if (!verifySeal(line, object_text))
                return Error(Errc::Corrupt,
                             path + ": checkpoint header "
                                    "checksum mismatch");
            Result<JsonValue> parsed = parseJson(object_text);
            if (!parsed.ok())
                return Error(Errc::Corrupt,
                             path + ": " + parsed.error().message);
            const JsonValue &v = parsed.value();
            if (v.strOr("format", "") != "cbws-checkpoint")
                return Error(Errc::Corrupt,
                             path + ": not a cbws-checkpoint file");
            const std::uint64_t ver = v.uintOr("schema_version", 0);
            if (ver != CheckpointSchemaVersion)
                return Error(
                    Errc::VersionMismatch,
                    path + ": checkpoint schema_version " +
                        std::to_string(ver) + " (this build " +
                        "reads version " +
                        std::to_string(CheckpointSchemaVersion) + ")");
            if (line != expected_header)
                return Error(
                    Errc::InvalidArgument,
                    path + ": checkpoint belongs to a different "
                           "experiment (budget, seed, workloads, "
                           "schemes, DRAM backend, core count or "
                           "pf-opts differ); delete it or pass a "
                           "fresh --checkpoint path");
            header_seen = true;
            continue;
        }
        // Informational build stamp, not resume state.
        if (line.find("\"type\":\"provenance\"") != std::string::npos)
            continue;
        Result<SimResult> cell = parseCheckpointCell(line);
        if (!cell.ok()) {
            // Torn tail from a crash mid-append, or bit rot: drop the
            // line, keep the rest. The cell is simply re-simulated.
            warn("%s:%zu: dropping unreadable checkpoint line (%s)",
                 path.c_str(), lineno, cell.error().str().c_str());
            continue;
        }
        SimResult r = std::move(cell).value();
        CellKey key{r.workload, r.prefetcher};
        cells_.emplace(std::move(key), std::move(r));
    }
    resumed_ = cells_.size();
    return Result<void>();
}

Result<void>
Checkpoint::open(const std::string &path, const Header &header)
{
    PROF_SCOPE(prof::Phase::CheckpointIO);
    std::lock_guard<std::mutex> lock(mutex_);
    panic_if(file_, "Checkpoint::open() called twice");

    // Load a previous run's lines, if any.
    bool existing = false;
    Result<void> read = readCells(path, header, existing);
    if (!read.ok())
        return read;

    file_ = std::fopen(path.c_str(), existing ? "ab" : "wb");
    if (!file_)
        return Error(Errc::IoError,
                     path + ": cannot open checkpoint for append: " +
                         std::strerror(errno));
    if (!existing) {
        // Header then provenance, both written raw: routing the
        // provenance through append() would advance fault-injection
        // site counts and shift deterministic injection schedules.
        const std::string line =
            headerLine(header) + "\n" + provenanceLine() + "\n";
        if (std::fwrite(line.data(), 1, line.size(), file_) !=
                line.size() ||
            std::fflush(file_) != 0) {
            std::fclose(file_);
            file_ = nullptr;
            return Error(Errc::IoError,
                         path + ": cannot write checkpoint header: " +
                             std::strerror(errno));
        }
    }
    return Result<void>();
}

Result<void>
Checkpoint::load(const std::string &path, const Header &header)
{
    PROF_SCOPE(prof::Phase::CheckpointIO);
    std::lock_guard<std::mutex> lock(mutex_);
    panic_if(file_, "Checkpoint::load() on an open checkpoint");
    if (!std::ifstream(path))
        return Error(Errc::NotFound, path + ": no such checkpoint");
    bool existing = false;
    Result<void> read = readCells(path, header, existing);
    if (!read.ok())
        return read;
    if (!existing)
        return Error(Errc::Corrupt,
                     path + ": empty checkpoint (no header)");
    return Result<void>();
}

std::size_t
Checkpoint::cellCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return cells_.size();
}

Result<void>
Checkpoint::sync()
{
    PROF_SCOPE(prof::Phase::CheckpointIO);
    std::lock_guard<std::mutex> lock(mutex_);
    if (!file_)
        return Result<void>();
    if (std::fflush(file_) != 0)
        return Error(Errc::IoError,
                     std::string("checkpoint flush failed: ") +
                         std::strerror(errno));
    if (::fsync(fileno(file_)) != 0)
        return Error(Errc::IoError,
                     std::string("checkpoint fsync failed: ") +
                         std::strerror(errno));
    return Result<void>();
}

const SimResult *
Checkpoint::find(const std::string &workload,
                 const std::string &prefetcher) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = cells_.find(CellKey{workload, prefetcher});
    return it == cells_.end() ? nullptr : &it->second;
}

Result<void>
Checkpoint::append(const SimResult &result)
{
    PROF_SCOPE(prof::Phase::CheckpointIO);
    std::lock_guard<std::mutex> lock(mutex_);
    if (!file_)
        return Error(Errc::InvalidArgument, "checkpoint not open");
    const CellKey key{result.workload, result.prefetcher};
    if (cells_.count(key))
        return Result<void>(); // resumed cell: already on disk

    const std::string line = checkpointCellLine(result) + "\n";
    // Transient write errors (full disk racing cleanup, injected
    // faults) are retried briefly; persistent failure degrades to
    // running without the checkpoint rather than killing the sweep.
    Result<void> wrote = retryWithBackoff(3, 1, [&]() -> Result<void> {
        if (FaultInjector::instance().shouldFire(
                FaultSite::CheckpointAppend))
            return Error(Errc::FaultInjected,
                         "injected checkpoint append failure");
        if (std::fwrite(line.data(), 1, line.size(), file_) !=
                line.size() ||
            std::fflush(file_) != 0)
            return Error(Errc::IoError,
                         std::string("checkpoint append failed: ") +
                             std::strerror(errno));
        return Result<void>();
    });
    if (!wrote.ok())
        return wrote;
    cells_.emplace(key, result);
    return Result<void>();
}

} // namespace cbws
