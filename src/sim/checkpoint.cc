#include "sim/checkpoint.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <iterator>
#include <unistd.h>

#include "base/json.hh"
#include "base/jsonparse.hh"
#include "base/logging.hh"
#include "base/profiler.hh"
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

/** True when @p v is an array of exactly @p n unsigned integers. */
bool
isUintArray(const JsonValue *v, std::size_t n)
{
    if (!v || v->type != JsonValue::Type::Array || v->array.size() != n)
        return false;
    for (const JsonValue &e : v->array)
        if (e.type != JsonValue::Type::Uint)
            return false;
    return true;
}

template <std::size_t N>
bool
readUintArray(const JsonValue *v, std::uint64_t (&out)[N])
{
    if (!isUintArray(v, N))
        return false;
    for (std::size_t i = 0; i < N; ++i)
        out[i] = v->array[i].uintValue;
    return true;
}

/** @p s as one JSON array, in the order of its Counters table. */
template <typename Stats>
void
writeCounters(JsonWriter &w, const Stats &s)
{
    w.beginArray();
    for (auto counter : Stats::Counters)
        w.value(s.*counter);
    w.endArray();
}

/** Inverse of writeCounters(); false unless @p v holds exactly one
 *  unsigned integer per counter. */
template <typename Stats>
bool
readCounters(const JsonValue *v, Stats &s)
{
    if (!isUintArray(v, std::size(Stats::Counters)))
        return false;
    for (std::size_t i = 0; i < std::size(Stats::Counters); ++i)
        s.*Stats::Counters[i] = v->array[i].uintValue;
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
    writeCounters(w, r.core);
    w.key("mem");
    writeCounters(w, r.mem);

    if (r.cores > 1) {
        w.field("cores", static_cast<std::uint64_t>(r.cores));
        w.key("per_core");
        w.beginArray();
        for (const auto &slice : r.perCore) {
            w.beginObject();
            w.field("workload", slice.workload);
            w.key("core");
            writeCounters(w, slice.core);
            w.key("mem");
            writeCounters(w, slice.mem);
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
        writeCounters(w, life);
    w.endArray();

    w.field("dram_backend", r.dramBackend);
    w.key("dram");
    writeCounters(w, r.mem.dram);

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

    if (!readCounters(v.find("core"), r.core))
        return Error(Errc::Corrupt, "checkpoint cell bad core array");
    if (!readCounters(v.find("mem"), r.mem))
        return Error(Errc::Corrupt, "checkpoint cell bad mem array");

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
            if (!readCounters(pc.find("core"), slice.core))
                return Error(Errc::Corrupt,
                             "checkpoint cell bad per_core core "
                             "array");
            if (!readCounters(pc.find("mem"), slice.mem))
                return Error(Errc::Corrupt,
                             "checkpoint cell bad per_core mem "
                             "array");
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
        if (!readCounters(&pf_life->array[s], r.mem.pfLife[s]))
            return Error(Errc::Corrupt,
                         "checkpoint cell bad pf_life entry");

    r.dramBackend = v.strOr("dram_backend", "fixed");
    if (!readCounters(v.find("dram"), r.mem.dram))
        return Error(Errc::Corrupt, "checkpoint cell bad dram array");
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

Checkpoint::~Checkpoint()
{
    if (file_)
        std::fclose(file_);
}

Result<void>
Checkpoint::open(const std::string &path, const Header &header)
{
    PROF_SCOPE(prof::Phase::CheckpointIO);
    std::lock_guard<std::mutex> lock(mutex_);
    panic_if(file_, "Checkpoint::open() called twice");

    // Load a previous run's lines, if any.
    const std::string expected_header = headerLine(header);
    bool existing = false;
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

    file_ = std::fopen(path.c_str(), existing ? "ab" : "wb");
    if (!file_)
        return Error(Errc::IoError,
                     path + ": cannot open checkpoint for append: " +
                         std::strerror(errno));
    if (!existing) {
        const std::string preamble =
            expected_header + "\n" + provenanceLine() + "\n";
        if (std::fwrite(preamble.data(), 1, preamble.size(), file_) !=
                preamble.size() ||
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
    // A failed write is not retried: the caller runs the cell
    // without the checkpoint rather than killing the sweep.
    if (std::fwrite(line.data(), 1, line.size(), file_) != line.size() ||
        std::fflush(file_) != 0)
        return Error(Errc::IoError,
                     std::string("checkpoint append failed: ") +
                         std::strerror(errno));
    cells_.emplace(key, result);
    return Result<void>();
}

} // namespace cbws
