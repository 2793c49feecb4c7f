/**
 * @file
 * Typed, self-describing parameter schemas for registry prefetchers.
 *
 * Every scheme's factory owns a parameter struct whose default
 * construction reproduces Table II. A ParamSchema binds user-facing
 * keys ("degree", "table-entries") to members of that struct so CLI
 * surfaces can
 *
 *   - list each scheme's accepted keys, types, defaults and help
 *     text (`--scheme help`), and
 *   - apply `--pf-opt key=value` strings onto the ParamSet handed to
 *     the factory, failing fast with Result errors on unknown keys or
 *     malformed values instead of silently ignoring them.
 *
 * Composite schemes mount their components' schemas under a scope
 * prefix (scoped("cbws", ...) turns "table-entries" into
 * "cbws.table-entries"), so "CBWS+SMS" tunes each side independently.
 */

#ifndef CBWS_PREFETCH_PARAMSCHEMA_HH
#define CBWS_PREFETCH_PARAMSCHEMA_HH

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <typeindex>
#include <vector>

#include "base/decimal.hh"
#include "base/result.hh"

namespace cbws
{

class ParamSet; // registry.hh; only referenced through std::function

/**
 * Upper bound of every key that sizes a table (the `*-entries` keys):
 * 2^20 entries, 4096x the largest Table II table, yet small enough
 * that no scheme's up-front allocation can exhaust memory.
 */
constexpr unsigned MaxTableEntries = 1u << 20;

namespace detail
{

/** Stable type label shown in `--scheme help` output. */
template <typename M>
constexpr const char *
paramTypeName()
{
    if constexpr (std::is_same_v<M, bool>)
        return "bool";
    else if constexpr (std::is_signed_v<M>)
        return "int";
    else
        return "uint";
}

/** Render a member's default value for help text. */
template <typename M>
inline std::string
paramValueToString(M value)
{
    if constexpr (std::is_same_v<M, bool>)
        return value ? "true" : "false";
    else
        return std::to_string(value);
}

/**
 * Parse @p text into @p out; InvalidArgument on junk or overflow.
 * Integers follow parseDecimal(): plain decimal digits, a leading
 * '-' only for signed keys.
 */
template <typename M>
inline Result<void>
parseParamValue(const std::string &text, M &out)
{
    if (text.empty())
        return Error(Errc::InvalidArgument, "empty value");
    if constexpr (std::is_same_v<M, bool>) {
        if (text == "1" || text == "true" || text == "on" ||
            text == "yes") {
            out = true;
            return Result<void>();
        }
        if (text == "0" || text == "false" || text == "off" ||
            text == "no") {
            out = false;
            return Result<void>();
        }
        return Error(Errc::InvalidArgument,
                     "'" + text + "' is not a bool (use true/false)");
    } else {
        if (!parseDecimal(text, out))
            return Error(Errc::InvalidArgument,
                         "'" + text + "' is not " +
                             (std::is_signed_v<M>
                                  ? "a decimal integer"
                                  : "an unsigned decimal integer") +
                             " in range");
        return Result<void>();
    }
}

} // namespace detail

/**
 * Ordered set of key -> struct-member bindings for one scheme. Built
 * by the scheme's row in the registry table; see file comment.
 *
 * The apply functions capture only member pointers, so a schema is
 * cheap to copy and safe to hand out by value.
 */
class ParamSchema
{
  public:
    /** One accepted key, as shown by `--scheme help`. */
    struct KeyInfo
    {
        std::string key;          ///< user-facing spelling
        std::string type;         ///< "uint" | "int" | "bool"
        std::string defaultValue; ///< Table II default, rendered
        std::string help;
    };

    /**
     * Bind @p key to member @p member of param struct @p S. The
     * default shown in help text is taken from a default-constructed
     * S, so it always matches what the factory uses. A key that sizes
     * an allocation passes @p max: a larger value is refused while
     * parsing, before any scheme is built, and the help text names
     * the bound.
     */
    template <typename S, typename M>
    ParamSchema &
    field(const std::string &key, M S::*member, const std::string &help,
          std::type_identity_t<M> max = std::numeric_limits<M>::max())
    {
        KeyInfo info;
        info.key = key;
        info.type = detail::paramTypeName<M>();
        info.defaultValue = detail::paramValueToString(S{}.*member);
        info.help = help;
        if (max != std::numeric_limits<M>::max())
            info.help += " (at most " + detail::paramValueToString(max) +
                         ")";
        return bind(std::move(info),
                    [member, max](ParamSet &params, const std::string &value)
                        -> Result<void> {
                        M parsed{};
                        Result<void> r =
                            detail::parseParamValue(value, parsed);
                        if (!r.ok())
                            return r;
                        if (parsed > max)
                            return Error(
                                Errc::InvalidArgument,
                                value + " exceeds the maximum " +
                                    detail::paramValueToString(max));
                        S current = getCurrent<S>(params);
                        current.*member = parsed;
                        setCurrent(params, current);
                        return Result<void>();
                    });
    }

    /**
     * Mount every key of @p component under "@p scope." — the way
     * composite schemes ("CBWS+SMS") expose per-component tuning
     * (`cbws.table-entries=32`, `sms.degree=2`).
     */
    ParamSchema &
    scoped(const std::string &scope, const ParamSchema &component)
    {
        for (const auto &info : component.infos_) {
            KeyInfo mounted = info;
            mounted.key = scope + "." + info.key;
            bind(std::move(mounted),
                 component.apply_.at(info.key));
        }
        return *this;
    }

    bool
    accepts(const std::string &key) const
    {
        return apply_.count(key) != 0;
    }

    /**
     * Parse @p value and write it through @p key's binding into
     * @p params. NotFound when the key is not bound here;
     * InvalidArgument when the value does not parse.
     */
    Result<void>
    apply(ParamSet &params, const std::string &key,
          const std::string &value) const
    {
        const auto it = apply_.find(key);
        if (it == apply_.end())
            return Error(Errc::NotFound,
                         "unknown parameter '" + key + "'");
        Result<void> r = it->second(params, value);
        if (!r.ok())
            return Error(r.error().code,
                         "parameter '" + key +
                             "': " + r.error().message);
        return r;
    }

    /** Accepted keys in declaration order (stable help output). */
    const std::vector<KeyInfo> &keys() const { return infos_; }

    bool empty() const { return infos_.empty(); }

    /** "degree, table-entries, ..." for error messages. */
    std::string
    keyList() const
    {
        std::string out;
        for (const auto &info : infos_)
            out += (out.empty() ? "" : ", ") + info.key;
        return out;
    }

  private:
    using ApplyFn =
        std::function<Result<void>(ParamSet &, const std::string &)>;

    ParamSchema &
    bind(KeyInfo info, ApplyFn fn)
    {
        if (apply_.emplace(info.key, std::move(fn)).second)
            infos_.push_back(std::move(info));
        return *this;
    }

    // Defined in registry.hh once ParamSet is complete.
    template <typename S>
    static S getCurrent(const ParamSet &params);
    template <typename S>
    static void setCurrent(ParamSet &params, const S &value);

    std::vector<KeyInfo> infos_;         ///< declaration order
    std::map<std::string, ApplyFn> apply_; ///< key -> writer
};

} // namespace cbws

#endif // CBWS_PREFETCH_PARAMSCHEMA_HH
