/**
 * @file
 * Runtime simulation-speed toggles.
 *
 * Every optimization gated here is required to be architecturally
 * invisible: flipping a toggle changes wall-clock time only, never a
 * simulated statistic or a serialised output. The toggles exist so the
 * bit-identity claim is *testable* — tests/test_replay_opt.cc runs the
 * same matrix cell with each toggle on and off and memcmp's the
 * results — and so a future miscompare can be bisected to one
 * optimization from the command line without a rebuild.
 *
 * Environment override (read once, at first use):
 *  - CBWS_SKIP_AHEAD=0    disable the idle-cycle fast-forward
 */

#ifndef CBWS_BASE_TUNING_HH
#define CBWS_BASE_TUNING_HH

namespace cbws
{

/** Process-wide speed toggles (mutable for tests). */
struct Tuning
{
    /** Fast-forward idle cycles to the next scheduled event in the
     *  out-of-order cycle loop (runCores()). */
    bool skipAhead = true;

    /** The singleton, initialised from the environment on first
     *  call. Tests may flip fields directly; production code only
     *  reads them. */
    static Tuning &get();
};

} // namespace cbws

#endif // CBWS_BASE_TUNING_HH
