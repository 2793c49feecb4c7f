#include "trace/tracecache.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include "base/logging.hh"
#include "base/profiler.hh"

namespace cbws
{

namespace
{

constexpr char CacheMagic[4] = {'C', 'B', 'T', 'C'};
constexpr std::uint32_t CacheVersion = 1;

/**
 * The bytes an entry for @p key starts with: magic, format version,
 * sizeof(TraceRecord), then the key (name length, name, budget and
 * seed as varints). The key is embedded redundantly with the
 * filename, and a load serves an entry only when these bytes match
 * exactly: a renamed file, one regenerated under different
 * parameters or one written by a binary with another format or
 * TraceRecord layout is never served (stale-key protection).
 */
std::string
entryHeader(const TraceCache::Key &key)
{
    const std::uint32_t rec_size = sizeof(TraceRecord);
    std::string bytes(CacheMagic, sizeof(CacheMagic));
    bytes.append(reinterpret_cast<const char *>(&CacheVersion),
                 sizeof(CacheVersion));
    bytes.append(reinterpret_cast<const char *>(&rec_size),
                 sizeof(rec_size));
    tracecodec::appendVarint(bytes, key.workload.size());
    bytes += key.workload;
    tracecodec::appendVarint(bytes, key.maxInstructions);
    tracecodec::appendVarint(bytes, key.seed);
    return bytes;
}

/** Keep the filename readable while staying filesystem-safe. */
std::string
sanitize(const std::string &name)
{
    std::string out;
    out.reserve(name.size());
    for (char c : name) {
        const bool safe = (c >= 'a' && c <= 'z') ||
                          (c >= 'A' && c <= 'Z') ||
                          (c >= '0' && c <= '9') || c == '-' ||
                          c == '_' || c == '.';
        out.push_back(safe ? c : '_');
    }
    return out;
}

/** mkdir -p; true when the directory exists afterwards. */
bool
makeDirs(const std::string &path)
{
    std::string partial;
    partial.reserve(path.size());
    for (std::size_t i = 0; i <= path.size(); ++i) {
        if (i < path.size() && path[i] != '/') {
            partial.push_back(path[i]);
            continue;
        }
        if (!partial.empty() &&
            ::mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST) {
            return false;
        }
        if (i < path.size())
            partial.push_back('/');
    }
    struct stat st;
    return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

} // anonymous namespace

TraceCache::TraceCache(std::string dir) : dir_(std::move(dir)) {}

std::string
TraceCache::pathFor(const Key &key) const
{
    if (!enabled())
        return std::string();
    return dir_ + "/" + sanitize(key.workload) + "-i" +
           std::to_string(key.maxInstructions) + "-s" +
           std::to_string(key.seed) + ".cbtc";
}

bool
TraceCache::ensureDirectory() const
{
    if (makeDirs(dir_))
        return true;
    warn("trace cache: cannot create directory '%s'", dir_.c_str());
    return false;
}

Result<void>
TraceCache::load(const Key &key, Trace &trace) const
{
    trace.clear();
    if (!enabled())
        return Error(Errc::NotFound, "trace cache disabled");
    PROF_SCOPE(prof::Phase::TraceCacheIO);
    const std::string path = pathFor(key);
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        ++misses_;
        return Error(Errc::NotFound, path + ": not cached");
    }
    std::string bytes;
    bool ok = tracecodec::readAll(f, bytes);
    std::fclose(f);
    const std::string header = entryHeader(key);
    ok = ok && bytes.compare(0, header.size(), header) == 0 &&
         tracecodec::decodeBody(
             reinterpret_cast<const unsigned char *>(bytes.data()) +
                 header.size(),
             bytes.size() - header.size(), trace.records());
    if (!ok) {
        trace.clear();
        ++misses_;
        return Error(Errc::Corrupt,
                     path + ": stale or corrupt cache entry");
    }
    ++hits_;
    return Result<void>();
}

Result<void>
TraceCache::store(const Key &key, const Trace &trace) const
{
    if (!enabled())
        return Error(Errc::NotFound, "trace cache disabled");
    PROF_SCOPE(prof::Phase::TraceCacheIO);
    if (!ensureDirectory())
        return Error(Errc::IoError,
                     dir_ + ": cannot create cache directory");
    const std::string path = pathFor(key);
    // Unique temp name per process+thread so concurrent writers of the
    // same key never interleave; rename() makes publication atomic.
    static std::atomic<unsigned> unique{0};
    const std::string tmp = path + ".tmp." +
                            std::to_string(::getpid()) + "." +
                            std::to_string(unique.fetch_add(1));
    std::string bytes = entryHeader(key);
    tracecodec::encodeBody(trace.records(), bytes);
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f) {
        warn("trace cache: cannot write '%s'", tmp.c_str());
        return Error(Errc::IoError, tmp + ": cannot open for write");
    }
    bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) ==
              bytes.size();
    ok = std::fclose(f) == 0 && ok;
    if (ok)
        ok = std::rename(tmp.c_str(), path.c_str()) == 0;
    if (!ok) {
        warn("trace cache: failed to publish '%s'", path.c_str());
        std::remove(tmp.c_str());
        return Error(Errc::IoError, path + ": publish failed");
    }
    return Result<void>();
}

} // namespace cbws
