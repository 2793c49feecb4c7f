/**
 * @file
 * Whole-system configuration (Table II) and prefetcher selection.
 */

#ifndef CBWS_SIM_CONFIG_HH
#define CBWS_SIM_CONFIG_HH

#include <memory>
#include <string>
#include <vector>

#include "cpu/core.hh"
#include "mem/params.hh"
#include "prefetch/registry.hh"

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
     * ParamSchema (the `--pf-opt` surface); the one way to tune a
     * scheme. Keys left unset keep the Table II defaults of the
     * scheme's parameter struct. Keys the selected scheme does not
     * accept are skipped by makePrefetcher — multi-scheme drivers
     * validate the full selection up front via
     * PrefetcherRegistry::validateOptions().
     */
    std::vector<std::string> pfOpts;
};

/**
 * Instantiate the configured prefetcher: `scheme` through
 * prefetcherRegistry(), with `pfOpts` applied over the Table II
 * defaults.
 */
std::unique_ptr<Prefetcher> makePrefetcher(const SystemConfig &config);

} // namespace cbws

#endif // CBWS_SIM_CONFIG_HH
