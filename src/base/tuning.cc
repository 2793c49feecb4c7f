#include "base/tuning.hh"

#include <cstdlib>
#include <cstring>

namespace cbws
{

Tuning &
Tuning::get()
{
    static Tuning tuning = [] {
        Tuning t;
        // On unless set to "0", "false" or "off".
        const char *value = std::getenv("CBWS_SKIP_AHEAD");
        t.skipAhead = !value || (std::strcmp(value, "0") != 0 &&
                                 std::strcmp(value, "false") != 0 &&
                                 std::strcmp(value, "off") != 0);
        return t;
    }();
    return tuning;
}

} // namespace cbws
