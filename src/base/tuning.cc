#include "base/tuning.hh"

#include <cstdlib>
#include <cstring>

namespace cbws
{

namespace
{

/** True unless @p name is set to "0", "false" or "off". */
bool
envEnabled(const char *name)
{
    const char *value = std::getenv(name);
    if (!value)
        return true;
    return std::strcmp(value, "0") != 0 &&
           std::strcmp(value, "false") != 0 &&
           std::strcmp(value, "off") != 0;
}

} // anonymous namespace

Tuning &
Tuning::get()
{
    static Tuning tuning = [] {
        Tuning t;
        t.skipAhead = envEnabled("CBWS_SKIP_AHEAD");
        return t;
    }();
    return tuning;
}

} // namespace cbws
