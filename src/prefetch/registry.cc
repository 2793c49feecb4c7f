/**
 * @file
 * The scheme table behind prefetcherRegistry(): every prefetcher the
 * simulator can build, one row each.
 */

#include "prefetch/registry.hh"

#include <cstring>
#include <strings.h>

#include "core/cbws_prefetcher.hh"
#include "prefetch/addon.hh"
#include "prefetch/ampm.hh"
#include "prefetch/ghb.hh"
#include "prefetch/multistride.hh"
#include "prefetch/pangloss.hh"
#include "prefetch/pythia.hh"
#include "prefetch/sms.hh"
#include "prefetch/stride.hh"

namespace cbws
{

namespace
{

struct Scheme
{
    const char *name; ///< canonical display form
    const char *description;
    ParamSchema (*schema)();
    std::unique_ptr<Prefetcher> (*factory)(const ParamSet &params);
};

/** A scheme built from its own parameter struct. */
template <typename P, typename Params>
std::unique_ptr<Prefetcher>
make(const ParamSet &params)
{
    return std::make_unique<P>(params.getOr<Params>());
}

template <GhbPrefetcher::Mode M>
std::unique_ptr<Prefetcher>
makeGhb(const ParamSet &params)
{
    return std::make_unique<GhbPrefetcher>(M, params.getOr<GhbParams>());
}

/** CBWS as an add-on gating base scheme B (Section VI). */
template <typename B, typename Params>
std::unique_ptr<Prefetcher>
makeCbwsOver(const ParamSet &params)
{
    return std::make_unique<CbwsAddOnPrefetcher>(
        std::make_unique<B>(params.getOr<Params>()),
        params.getOr<CbwsParams>());
}

// Rows stay in case-insensitive name order: names() returns them as
// they stand (test_registry checks the order). Add-on schemes expose
// per-component tuning through scoped keys:
// `--pf-opt cbws.table-entries=32 --pf-opt sms.region-bytes=4096`.
constexpr Scheme Schemes[] = {
    {"AMPM", "access map pattern matching prefetcher", ampmParamSchema,
     make<AmpmPrefetcher, AmpmParams>},
    {"CBWS", "code block working set prefetcher (the paper's scheme)",
     cbwsParamSchema, make<CbwsPrefetcher, CbwsParams>},
    {"CBWS+AMPM", "CBWS gating an AMPM base prefetcher",
     [] {
         return ParamSchema()
             .scoped("cbws", cbwsParamSchema())
             .scoped("ampm", ampmParamSchema());
     },
     makeCbwsOver<AmpmPrefetcher, AmpmParams>},
    {"CBWS+SMS", "CBWS with SMS fallback (Section VI integration)",
     [] {
         return ParamSchema()
             .scoped("cbws", cbwsParamSchema())
             .scoped("sms", smsParamSchema());
     },
     makeCbwsOver<SmsPrefetcher, SmsParams>},
    {"GHB-G/DC", "global history buffer, global delta correlation",
     ghbParamSchema, makeGhb<GhbPrefetcher::Mode::GlobalDC>},
    {"GHB-PC/DC", "global history buffer, per-PC delta correlation",
     ghbParamSchema, makeGhb<GhbPrefetcher::Mode::PcDC>},
    {"Multistride", "IP-indexed multi-stride hybrid (Blom et al.)",
     multistrideParamSchema,
     make<MultistridePrefetcher, MultistrideParams>},
    {"No-Prefetch", "baseline without any prefetching",
     [] { return ParamSchema(); },
     [](const ParamSet &) -> std::unique_ptr<Prefetcher> {
         return std::make_unique<NullPrefetcher>();
     }},
    {"Pangloss",
     "per-page Markov chain over line deltas, compressed transition "
     "table",
     panglossParamSchema, make<PanglossPrefetcher, PanglossParams>},
    {"Pythia",
     "online-RL prefetcher: pluggable features, discrete actions, "
     "shaped rewards",
     pythiaParamSchema, make<PythiaPrefetcher, PythiaParams>},
    {"SMS", "spatial memory streaming prefetcher", smsParamSchema,
     make<SmsPrefetcher, SmsParams>},
    {"Stride", "reference-prediction-table stride prefetcher",
     strideParamSchema, make<StridePrefetcher, StrideParams>},
};

/** The row named @p name (case-insensitive); nullptr when unknown. */
const Scheme *
find(const std::string &name)
{
    for (const Scheme &scheme : Schemes)
        if (std::strlen(scheme.name) == name.size() &&
            strcasecmp(scheme.name, name.c_str()) == 0)
            return &scheme;
    return nullptr;
}

Error
notFound(const std::string &name)
{
    std::string known;
    for (const Scheme &scheme : Schemes)
        known += (known.empty() ? "" : ", ") + std::string(scheme.name);
    return Error(Errc::NotFound, "no prefetcher registered as '" +
                                     name + "' (registered: " + known +
                                     ")");
}

/** Split "key=value" (both non-empty) or fail InvalidArgument. */
Result<void>
splitOption(const std::string &opt, std::string &key,
            std::string &value)
{
    const auto eq = opt.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == opt.size())
        return Error(Errc::InvalidArgument,
                     "--pf-opt '" + opt +
                         "' is not of the form key=value");
    key = opt.substr(0, eq);
    value = opt.substr(eq + 1);
    return Result<void>();
}

} // anonymous namespace

Result<std::unique_ptr<Prefetcher>>
PrefetcherRegistry::create(const std::string &name,
                           const ParamSet &params) const
{
    const Scheme *scheme = find(name);
    if (!scheme)
        return notFound(name);
    return scheme->factory(params);
}

bool
PrefetcherRegistry::contains(const std::string &name) const
{
    return find(name) != nullptr;
}

std::vector<std::string>
PrefetcherRegistry::names() const
{
    std::vector<std::string> out;
    for (const Scheme &scheme : Schemes)
        out.push_back(scheme.name);
    return out;
}

std::string
PrefetcherRegistry::canonicalName(const std::string &name) const
{
    const Scheme *scheme = find(name);
    return scheme ? scheme->name : std::string();
}

std::string
PrefetcherRegistry::describe(const std::string &name) const
{
    const Scheme *scheme = find(name);
    return scheme ? scheme->description : std::string();
}

ParamSchema
PrefetcherRegistry::paramSchema(const std::string &name) const
{
    const Scheme *scheme = find(name);
    return scheme ? scheme->schema() : ParamSchema();
}

Result<void>
PrefetcherRegistry::applyOptions(const std::string &name,
                                 ParamSet &params,
                                 const std::vector<std::string> &opts,
                                 bool ignore_unknown) const
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
                "scheme '" + name + "' does not accept parameter '" +
                    key + "'" +
                    (schema.empty()
                         ? " (it has no tunable parameters)"
                         : " (accepted: " + schema.keyList() + ")"));
        }
        Result<void> applied = schema.apply(params, key, value);
        if (!applied.ok())
            return Error(applied.error().code,
                         "scheme '" + name +
                             "': " + applied.error().message);
    }
    return Result<void>();
}

Result<void>
PrefetcherRegistry::validateOptions(
    const std::vector<std::string> &schemes,
    const std::vector<std::string> &opts) const
{
    for (const auto &scheme : schemes)
        if (!contains(scheme))
            return notFound(scheme);
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
            Result<void> applied = schema.apply(scratch, key, value);
            if (!applied.ok())
                return Error(applied.error().code,
                             "scheme '" + scheme +
                                 "': " + applied.error().message);
        }
        if (acceptors == 0) {
            std::string accepted;
            for (const auto &scheme : schemes) {
                const std::string keys = paramSchema(scheme).keyList();
                if (keys.empty())
                    continue;
                accepted +=
                    (accepted.empty() ? "" : "; ") + scheme + ": " + keys;
            }
            return Error(Errc::InvalidArgument,
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

const PrefetcherRegistry &
prefetcherRegistry()
{
    static const PrefetcherRegistry registry{};
    return registry;
}

} // namespace cbws
