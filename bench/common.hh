/**
 * @file
 * Shared helpers for the figure- and table-regenerating benches.
 */

#ifndef CBWS_BENCH_COMMON_HH
#define CBWS_BENCH_COMMON_HH

#include <cmath>
#include <string>

#include "sim/experiment.hh"

namespace cbws
{
namespace bench
{

/** Which options a bench's command line accepts. */
enum class Options
{
    Matrix, ///< all of init()'s options: the bench calls runMatrix
    System, ///< --dram, --pf-opt and the profiler, not the matrix
            ///< knobs (--jobs, --trace-cache, --checkpoint)
    None,   ///< --help only
};

/**
 * Parse the execution knobs every matrix bench shares:
 *
 *   --jobs=N          worker threads (default 1)
 *   --trace-cache=DIR on-disk trace cache (default none; "0"/"off"
 *                     disables)
 *   --checkpoint=FILE crash-safe checkpoint: finished cells are
 *                     appended; a restarted run resumes from them
 *   --dram=NAME       DRAM timing backend (fixed | ddr)
 *   --pf-opt k=v      scheme parameter override, repeatable; keys are
 *                     validated against the bench's scheme selection
 *                     (see `cbws-sim --scheme help` for the keys)
 *   --profile         host-side self-profiler: phase/worker breakdown
 *                     on stderr at exit plus a BENCH_profile.json
 *                     artifact
 *   --profile-json=F  profile artifact destination (implies --profile)
 *   --help            print usage and exit
 *
 * Unless @p accepted is None, init() also arms the deterministic
 * fault-injection harness from the CBWS_FAULT / CBWS_FAULT_SEED
 * environment (base/faultinject.hh).
 *
 * Call at the top of main(); exits 0 on --help and 1 on an option
 * outside @p accepted or on any positional argument, so a bench never
 * ignores a knob it cannot honour. Any jobs value produces
 * byte-identical report output — parallelism only changes wall-clock
 * time.
 */
void init(int argc, char **argv, Options accepted = Options::Matrix);

/** The runMatrix options resolved by init() (or the defaults). */
MatrixOptions matrixOptions();

/** Table II system config with the --dram and --pf-opt selections
 *  applied. */
SystemConfig systemConfig();

/** The `--pf-opt key=value` strings collected by init(). */
const std::vector<std::string> &pfOpts();

/** Print the standard bench banner with the paper reference. */
void banner(const std::string &title, const std::string &paper_ref,
            std::uint64_t insts);

/** Format a fraction as a percentage string. */
std::string pct(double fraction, int precision = 1);

/** Geometric mean over rows of @p metric (MI subset or all rows). */
template <typename Fn>
double
geomean(const ExperimentMatrix &matrix, Fn metric, bool mi_only)
{
    double log_sum = 0.0;
    std::size_t n = 0;
    for (std::size_t r = 0; r < matrix.rows.size(); ++r) {
        if (mi_only && !matrix.rows[r].memoryIntensive)
            continue;
        const double v = metric(r);
        if (v > 0) {
            log_sum += std::log(v);
            ++n;
        }
    }
    return n ? std::exp(log_sum / static_cast<double>(n)) : 0.0;
}

} // namespace bench
} // namespace cbws

#endif // CBWS_BENCH_COMMON_HH
