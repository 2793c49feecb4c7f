/**
 * @file
 * String-keyed prefetcher registry.
 *
 * Pythia-style customisable framework: every scheme registers a
 * factory under the name the paper's figures use ("CBWS+SMS",
 * "GHB-PC/DC", ...), from its *own* translation unit, and consumers
 * instantiate by name:
 *
 *     auto pf = prefetcherRegistry().create("cbws+sms", params);
 *
 * Lookup is case-insensitive, so CLI surfaces accept "cbws+sms" for
 * "CBWS+SMS". Factories receive a ParamSet — a type-erased bag of
 * the per-scheme parameter structs — and fall back to each struct's
 * Table II defaults when a slot is absent. SystemConfig::scheme
 * (sim/config.hh) carries the registry name; makePrefetcher() builds
 * it.
 *
 * Static-archive caveat: a registration living in an otherwise
 * unreferenced object file is dropped by the linker. Each
 * CBWS_REGISTER_PREFETCHER therefore also defines a linker anchor,
 * and any always-linked TU (sim/config.cc for the built-ins) pins the
 * scheme with CBWS_FORCE_LINK_PREFETCHER. Schemes registered from an
 * executable's own sources need no anchor.
 */

#ifndef CBWS_PREFETCH_REGISTRY_HH
#define CBWS_PREFETCH_REGISTRY_HH

#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <typeindex>
#include <vector>

#include "base/logging.hh"
#include "base/result.hh"
#include "prefetch/paramschema.hh"
#include "prefetch/prefetcher.hh"

namespace cbws
{

/**
 * Type-erased bag of per-scheme parameter structs, keyed by type.
 * set(StrideParams{...}) stores a copy; get<StrideParams>() returns
 * it (or nullptr when absent — use getOr() for defaulting).
 */
class ParamSet
{
  public:
    template <typename T>
    void
    set(const T &value)
    {
        slots_[std::type_index(typeid(T))] =
            std::make_shared<T>(value);
    }

    template <typename T>
    const T *
    get() const
    {
        const auto it = slots_.find(std::type_index(typeid(T)));
        return it == slots_.end()
                   ? nullptr
                   : static_cast<const T *>(it->second.get());
    }

    /** The stored T, or a default-constructed one (Table II). */
    template <typename T>
    T
    getOr() const
    {
        const T *p = get<T>();
        return p ? *p : T();
    }

  private:
    std::map<std::type_index, std::shared_ptr<const void>> slots_;
};

// ParamSchema's member writers (paramschema.hh) need a complete
// ParamSet: read the scheme's current struct (Table II defaults when
// absent), mutate one member, store it back.
template <typename S>
S
ParamSchema::getCurrent(const ParamSet &params)
{
    return params.getOr<S>();
}

template <typename S>
void
ParamSchema::setCurrent(ParamSet &params, const S &value)
{
    params.set(value);
}

/**
 * Fully inline so registration TUs in any library (cbws_core hosts
 * CBWS, cbws_prefetch the rest) can use it without a link-time
 * dependency between those libraries.
 */
class PrefetcherRegistry
{
  public:
    using Factory = std::function<std::unique_ptr<Prefetcher>(
        const ParamSet &params)>;

    /**
     * Register @p factory under @p name (the canonical display name).
     * First registration wins, so a mislinked duplicate cannot
     * silently shadow a scheme: a duplicate is a hard error (panic)
     * in strict mode — on by default under the test suite via
     * CBWS_STRICT_REGISTRY=1 — and returns false with a warning
     * otherwise.
     */
    bool
    add(const std::string &name, const std::string &description,
        Factory factory)
    {
        return add(name, description, ParamSchema(),
                   std::move(factory));
    }

    /**
     * Register @p factory together with the scheme's parameter
     * schema — the describe() seam behind `--scheme help` and
     * `--pf-opt`.
     */
    bool
    add(const std::string &name, const std::string &description,
        ParamSchema schema, Factory factory)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto [it, inserted] = entries_.emplace(
            canon(name), Entry{name, description, std::move(schema),
                               std::move(factory)});
        (void)it;
        if (!inserted) {
            panic_if(strictDuplicates_,
                     "prefetcher registry: duplicate registration of "
                     "'%s' — a mistyped self-registration would "
                     "shadow a real scheme (set CBWS_STRICT_REGISTRY=0 "
                     "to downgrade to a warning)",
                     name.c_str());
            warn("prefetcher registry: duplicate registration of "
                 "'%s' ignored",
                 name.c_str());
        }
        return inserted;
    }

    /**
     * Toggle the duplicate-registration hard error; returns the
     * previous setting. Defaults to the CBWS_STRICT_REGISTRY
     * environment variable ("0"/unset = warn, anything else = panic).
     */
    bool
    setStrictDuplicates(bool strict)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const bool previous = strictDuplicates_;
        strictDuplicates_ = strict;
        return previous;
    }

    /** Instantiate the scheme registered under @p name
     *  (case-insensitive). NotFound lists the registered names. */
    Result<std::unique_ptr<Prefetcher>>
    create(const std::string &name,
           const ParamSet &params = ParamSet()) const
    {
        Factory factory;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            const auto it = entries_.find(canon(name));
            if (it != entries_.end())
                factory = it->second.factory;
        }
        if (!factory) {
            std::string known;
            for (const auto &n : names())
                known += (known.empty() ? "" : ", ") + n;
            return Error(Errc::NotFound,
                         "no prefetcher registered as '" + name +
                             "' (registered: " + known + ")");
        }
        return factory(params);
    }

    bool
    contains(const std::string &name) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return entries_.count(canon(name)) != 0;
    }

    /** Canonical names, sorted case-insensitively (stable output for
     *  `--scheme help` regardless of registration order). */
    std::vector<std::string>
    names() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::vector<std::string> out;
        out.reserve(entries_.size());
        for (const auto &entry : entries_)
            out.push_back(entry.second.name);
        return out; // map order == sorted canonical order
    }

    /** Canonical display form of @p name ("cbws+sms" -> "CBWS+SMS");
     *  empty when unknown. */
    std::string
    canonicalName(const std::string &name) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = entries_.find(canon(name));
        return it == entries_.end() ? std::string()
                                    : it->second.name;
    }

    /** Registered description of @p name (empty when unknown). */
    std::string
    describe(const std::string &name) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = entries_.find(canon(name));
        return it == entries_.end() ? std::string()
                                    : it->second.description;
    }

    /** The scheme's parameter schema (empty when unknown or when the
     *  scheme registered without one). */
    ParamSchema
    paramSchema(const std::string &name) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = entries_.find(canon(name));
        return it == entries_.end() ? ParamSchema()
                                    : it->second.schema;
    }

    /** The describe() seam: accepted keys + Table II defaults of
     *  @p name, in declaration order (empty when unknown). */
    std::vector<ParamSchema::KeyInfo>
    describeParams(const std::string &name) const
    {
        return paramSchema(name).keys();
    }

    /**
     * Apply `key=value` option strings onto @p params through
     * @p name's schema. With @p ignore_unknown, keys the scheme does
     * not accept are skipped (multi-scheme runs pre-validate each key
     * against the whole selection with validateOptions()); otherwise
     * an unknown key is an InvalidArgument error listing the accepted
     * keys. Malformed values always fail.
     */
    Result<void>
    applyOptions(const std::string &name, ParamSet &params,
                 const std::vector<std::string> &opts,
                 bool ignore_unknown = false) const
    {
        const ParamSchema schema = paramSchema(name);
        for (const auto &opt : opts) {
            std::string key, value;
            Result<void> split = splitOption(opt, key, value);
            if (!split.ok())
                return split;
            if (!schema.accepts(key)) {
                if (ignore_unknown)
                    continue;
                return Error(
                    Errc::InvalidArgument,
                    "scheme '" + name + "' does not accept "
                    "parameter '" + key + "'" +
                        (schema.empty()
                             ? " (it has no tunable parameters)"
                             : " (accepted: " + schema.keyList() +
                                   ")"));
            }
            Result<void> applied = schema.apply(params, key, value);
            if (!applied.ok())
                return Error(applied.error().code,
                             "scheme '" + name +
                                 "': " + applied.error().message);
        }
        return Result<void>();
    }

    /**
     * Validate `--pf-opt` strings against a run's scheme selection:
     * every scheme must be registered, every option must be
     * `key=value`, every key must be accepted by at least one
     * selected scheme, and the value must parse for every scheme
     * that accepts it. This is the fail-fast gate CLI surfaces and
     * runMatrix call before any simulation starts.
     */
    Result<void>
    validateOptions(const std::vector<std::string> &schemes,
                    const std::vector<std::string> &opts) const
    {
        for (const auto &scheme : schemes) {
            if (contains(scheme))
                continue;
            std::string known;
            for (const auto &n : names())
                known += (known.empty() ? "" : ", ") + n;
            return Error(Errc::NotFound,
                         "no prefetcher registered as '" + scheme +
                             "' (registered: " + known + ")");
        }
        for (const auto &opt : opts) {
            std::string key, value;
            Result<void> split = splitOption(opt, key, value);
            if (!split.ok())
                return split;
            unsigned acceptors = 0;
            for (const auto &scheme : schemes) {
                const ParamSchema schema = paramSchema(scheme);
                if (!schema.accepts(key))
                    continue;
                ++acceptors;
                ParamSet scratch;
                Result<void> applied =
                    schema.apply(scratch, key, value);
                if (!applied.ok())
                    return Error(applied.error().code,
                                 "scheme '" + scheme +
                                     "': " + applied.error().message);
            }
            if (acceptors == 0) {
                std::string accepted;
                for (const auto &scheme : schemes) {
                    const std::string keys =
                        paramSchema(scheme).keyList();
                    if (keys.empty())
                        continue;
                    accepted += (accepted.empty() ? "" : "; ") +
                                scheme + ": " + keys;
                }
                return Error(
                    Errc::InvalidArgument,
                    "no selected scheme accepts parameter '" + key +
                        "'" +
                        (accepted.empty()
                             ? ""
                             : " (accepted keys — " + accepted +
                                   ")"));
            }
        }
        return Result<void>();
    }

  private:
    struct Entry
    {
        std::string name; ///< canonical display form
        std::string description;
        ParamSchema schema;
        Factory factory;
    };

    /** Split "key=value" (both non-empty) or fail InvalidArgument. */
    static Result<void>
    splitOption(const std::string &opt, std::string &key,
                std::string &value)
    {
        const auto eq = opt.find('=');
        if (eq == std::string::npos || eq == 0 ||
            eq + 1 == opt.size())
            return Error(Errc::InvalidArgument,
                         "--pf-opt '" + opt +
                             "' is not of the form key=value");
        key = opt.substr(0, eq);
        value = opt.substr(eq + 1);
        return Result<void>();
    }

    static std::string
    canon(const std::string &name)
    {
        std::string out;
        out.reserve(name.size());
        for (char c : name)
            out.push_back(c >= 'A' && c <= 'Z'
                              ? static_cast<char>(c - 'A' + 'a')
                              : c);
        return out;
    }

    /** CBWS_STRICT_REGISTRY: "0"/unset = warn, else hard error. */
    static bool
    strictFromEnv()
    {
        const char *env = std::getenv("CBWS_STRICT_REGISTRY");
        return env != nullptr && std::string(env) != "0";
    }

    mutable std::mutex mutex_;
    std::map<std::string, Entry> entries_; ///< canon(name) -> entry
    bool strictDuplicates_ = strictFromEnv();
};

/** The process-wide registry (safe across static initialisers). */
inline PrefetcherRegistry &
prefetcherRegistry()
{
    static PrefetcherRegistry registry;
    return registry;
}

/**
 * Self-registration from a scheme's translation unit:
 *
 *   CBWS_REGISTER_PREFETCHER(stride, "Stride", "RPT stride prefetcher",
 *       strideParamSchema(),
 *       [](const ParamSet &p) {
 *           return std::make_unique<StridePrefetcher>(
 *               p.getOr<StrideParams>());
 *       })
 *
 * The ParamSchema argument is optional (schemes without tunables omit
 * it); @p tag is a C identifier naming the linker anchor.
 */
#define CBWS_REGISTER_PREFETCHER(tag, name, description, ...)          \
    extern "C" char cbwsPrefetcherAnchor_##tag;                        \
    char cbwsPrefetcherAnchor_##tag = 0;                               \
    namespace {                                                        \
    const bool cbwsPrefetcherReg_##tag [[maybe_unused]] =              \
        ::cbws::prefetcherRegistry().add(name, description,            \
                                         __VA_ARGS__);                 \
    }

/**
 * Pin a scheme's registration TU into the link (see file comment).
 * Lives in an always-linked TU of the consumer.
 */
#define CBWS_FORCE_LINK_PREFETCHER(tag)                                \
    extern "C" char cbwsPrefetcherAnchor_##tag;                        \
    namespace {                                                        \
    /* [[gnu::used]]: an unreferenced internal-linkage constant would \
     * otherwise be discarded before it creates the relocation that   \
     * drags the registration TU out of its archive. */               \
    [[gnu::used, maybe_unused]] const char                             \
        *const cbwsPrefetcherPin_##tag = &cbwsPrefetcherAnchor_##tag;  \
    }

} // namespace cbws

#endif // CBWS_PREFETCH_REGISTRY_HH
