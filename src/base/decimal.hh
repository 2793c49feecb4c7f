/**
 * @file
 * Strict decimal integer parsing for user-supplied numbers.
 *
 * The one rule every numeric CLI value follows (`--insts`, `--l2-kb`,
 * `--pf-opt table-entries=64`): plain decimal digits, with a leading
 * '-' only for signed types, and the value in range for the target
 * type. Whitespace, '+', hex/octal prefixes and trailing text are
 * rejected, so "010" is ten and "-1" never wraps to 2^64-1.
 */

#ifndef CBWS_BASE_DECIMAL_HH
#define CBWS_BASE_DECIMAL_HH

#include <charconv>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace cbws
{

/**
 * Parse all of @p text as a decimal T into @p out. Returns false —
 * leaving @p out untouched — on junk, an empty string, a sign an
 * unsigned T cannot take, or a value outside T's range.
 */
template <typename T>
bool
parseDecimal(std::string_view text, T &out)
{
    static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool>);
    const char *const end = text.data() + text.size();
    T value{};
    const auto [stop, ec] = std::from_chars(text.data(), end, value, 10);
    if (ec != std::errc() || stop != end)
        return false;
    out = value;
    return true;
}

} // namespace cbws

#endif // CBWS_BASE_DECIMAL_HH
