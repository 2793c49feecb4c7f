#include "trace/tracecache.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include "base/faultinject.hh"
#include "base/logging.hh"
#include "base/profiler.hh"

namespace cbws
{

namespace
{

constexpr char CacheMagic[4] = {'C', 'B', 'T', 'C'};
constexpr std::uint32_t CacheVersion = 1;

using tracecodec::getVarint;
using tracecodec::putVarint;

void
putString(std::FILE *f, const std::string &s)
{
    putVarint(f, s.size());
    std::fwrite(s.data(), 1, s.size(), f);
}

bool
getString(std::FILE *f, std::string &s)
{
    std::uint64_t len = 0;
    if (!getVarint(f, len) || len > 4096)
        return false;
    s.resize(len);
    return len == 0 ||
           std::fread(&s[0], 1, len, f) == len;
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

TraceCache
TraceCache::fromEnv()
{
    const char *env = std::getenv("CBWS_TRACE_CACHE");
    if (!env || !*env || std::strcmp(env, "0") == 0 ||
        std::strcmp(env, "off") == 0) {
        return TraceCache();
    }
    return TraceCache(env);
}

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
    if (FaultInjector::instance().shouldFire(
            FaultSite::TraceCacheLoad)) {
        ++misses_;
        return Error(Errc::FaultInjected,
                     path + ": injected trace-cache load failure");
    }
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        ++misses_;
        return Error(Errc::NotFound, path + ": not cached");
    }

    char magic[4];
    std::uint32_t version = 0;
    std::uint32_t rec_size = 0;
    std::string workload;
    std::uint64_t insts = 0;
    std::uint64_t seed = 0;
    bool ok =
        std::fread(magic, 1, sizeof(magic), f) == sizeof(magic) &&
        std::memcmp(magic, CacheMagic, sizeof(magic)) == 0 &&
        std::fread(&version, sizeof(version), 1, f) == 1 &&
        version == CacheVersion &&
        std::fread(&rec_size, sizeof(rec_size), 1, f) == 1 &&
        rec_size == sizeof(TraceRecord) && getString(f, workload) &&
        getVarint(f, insts) && getVarint(f, seed);
    // The key is embedded redundantly with the filename: a renamed or
    // regenerated-under-different-parameters file must never be
    // served (stale-key protection).
    ok = ok && workload == key.workload &&
         insts == key.maxInstructions && seed == key.seed;
    ok = ok && tracecodec::readBody(f, trace.records());
    std::fclose(f);
    if (FaultInjector::instance().shouldFire(
            FaultSite::TraceCacheCorrupt))
        ok = false;
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
    if (FaultInjector::instance().shouldFire(
            FaultSite::TraceCacheStore))
        return Error(Errc::FaultInjected,
                     path + ": injected trace-cache store failure");
    // Unique temp name per process+thread so concurrent writers of the
    // same key never interleave; rename() makes publication atomic.
    static std::atomic<unsigned> unique{0};
    const std::string tmp = path + ".tmp." +
                            std::to_string(::getpid()) + "." +
                            std::to_string(unique.fetch_add(1));
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f) {
        warn("trace cache: cannot write '%s'", tmp.c_str());
        return Error(Errc::IoError, tmp + ": cannot open for write");
    }
    std::fwrite(CacheMagic, 1, sizeof(CacheMagic), f);
    std::fwrite(&CacheVersion, sizeof(CacheVersion), 1, f);
    const std::uint32_t rec_size = sizeof(TraceRecord);
    std::fwrite(&rec_size, sizeof(rec_size), 1, f);
    putString(f, key.workload);
    putVarint(f, key.maxInstructions);
    putVarint(f, key.seed);
    bool ok = tracecodec::writeBody(f, trace.records());
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
