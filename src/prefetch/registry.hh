/**
 * @file
 * String-keyed prefetcher registry.
 *
 * One constant table (registry.cc) lists every scheme under the name
 * the paper's figures use ("CBWS+SMS", "GHB-PC/DC", ...) with its
 * description, parameter schema and factory; consumers instantiate
 * by name:
 *
 *     auto pf = prefetcherRegistry().create("cbws+sms", params);
 *
 * Lookup is case-insensitive, so CLI surfaces accept "cbws+sms" for
 * "CBWS+SMS". Factories receive a ParamSet — a type-erased bag of
 * the per-scheme parameter structs — and fall back to each struct's
 * Table II defaults when a slot is absent. SystemConfig::scheme
 * (sim/config.hh) carries the registry name; makePrefetcher() builds
 * it. Adding a scheme is one row in that table.
 */

#ifndef CBWS_PREFETCH_REGISTRY_HH
#define CBWS_PREFETCH_REGISTRY_HH

#include <map>
#include <memory>
#include <string>
#include <typeindex>
#include <vector>

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
 * Name-keyed queries over the constant scheme table in registry.cc.
 * Stateless: every query reads the table directly.
 */
class PrefetcherRegistry
{
  public:
    /** Instantiate the scheme named @p name (case-insensitive).
     *  NotFound lists the registered names. */
    Result<std::unique_ptr<Prefetcher>>
    create(const std::string &name,
           const ParamSet &params = ParamSet()) const;

    bool contains(const std::string &name) const;

    /** Canonical names, sorted case-insensitively (the table's row
     *  order; `--scheme help` and the tournament roster follow it). */
    std::vector<std::string> names() const;

    /** Canonical display form of @p name ("cbws+sms" -> "CBWS+SMS");
     *  empty when unknown. */
    std::string canonicalName(const std::string &name) const;

    /** Description of @p name (empty when unknown). */
    std::string describe(const std::string &name) const;

    /** The scheme's parameter schema (empty when unknown or when the
     *  scheme has no tunables). */
    ParamSchema paramSchema(const std::string &name) const;

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
    Result<void> applyOptions(const std::string &name, ParamSet &params,
                              const std::vector<std::string> &opts,
                              bool ignore_unknown = false) const;

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
                    const std::vector<std::string> &opts) const;
};

/** The process-wide registry. */
const PrefetcherRegistry &prefetcherRegistry();

} // namespace cbws

#endif // CBWS_PREFETCH_REGISTRY_HH
