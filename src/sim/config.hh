/**
 * @file
 * Whole-system configuration (Table II) and prefetcher selection.
 */

#ifndef CBWS_SIM_CONFIG_HH
#define CBWS_SIM_CONFIG_HH

#include <memory>
#include <string>
#include <vector>

#include "core/cbws_prefetcher.hh"
#include "cpu/core.hh"
#include "mem/params.hh"
#include "prefetch/ampm.hh"
#include "prefetch/ghb.hh"
#include "prefetch/multistride.hh"
#include "prefetch/pangloss.hh"
#include "prefetch/pythia.hh"
#include "prefetch/registry.hh"
#include "prefetch/sms.hh"
#include "prefetch/stride.hh"

namespace cbws
{

/** Registry names of the paper's seven evaluated configurations, in
 *  Fig. 12 legend order. */
std::vector<std::string> allSchemeNames();

/** The paper's seven plus the extension schemes (AMPM, CBWS+AMPM). */
std::vector<std::string> extendedSchemeNames();

/** Every scheme in the registry (the tournament roster), sorted. */
std::vector<std::string> zooSchemeNames();

/**
 * Full simulated-system configuration; defaults reproduce Table II.
 */
struct SystemConfig
{
    CoreParams core;
    HierarchyParams mem;

    /** Prefetching scheme as a registry name ("CBWS+SMS", "pangloss",
     *  case-insensitive). */
    std::string scheme = "No-Prefetch";

    /**
     * `key=value` parameter overrides applied through the scheme's
     * ParamSchema on top of the struct defaults below (the `--pf-opt`
     * surface). Keys the selected scheme does not accept are skipped
     * by makePrefetcher — multi-scheme drivers validate the full
     * selection up front via PrefetcherRegistry::validateOptions().
     */
    std::vector<std::string> pfOpts;

    StrideParams stride;
    GhbParams ghb;
    SmsParams sms;
    CbwsParams cbws;
    AmpmParams ampm;
    MultistrideParams multistride;
    PanglossParams pangloss;
    PythiaParams pythia;
};

/** Bundle the config's per-scheme parameter structs for the registry. */
ParamSet paramSetFrom(const SystemConfig &config);

/**
 * Instantiate the configured prefetcher: `scheme` through
 * prefetcherRegistry(), with the config's parameter structs and
 * `pfOpts` applied.
 */
std::unique_ptr<Prefetcher> makePrefetcher(const SystemConfig &config);

} // namespace cbws

#endif // CBWS_SIM_CONFIG_HH
