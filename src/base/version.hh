/**
 * @file
 * Build provenance: which exact build produced an artifact?
 *
 * CMake stamps the git SHA (plus a -dirty marker), compiler id and
 * flags, and build type into a generated version.cc at configure
 * time. Every emitted artifact (reports, checkpoints, tournaments,
 * BENCH_*.json) can then carry a `provenance` object so performance
 * trajectories and golden files stay attributable to a commit.
 *
 * Gating: BENCH_*.json artifacts are never golden-diffed, so they
 * are always stamped. Report and statsdump outputs *are*
 * golden-diffed byte-for-byte in CI, so their provenance sections sit
 * behind an explicit opt-in flag (see sim-layer options).
 */

#ifndef CBWS_BASE_VERSION_HH
#define CBWS_BASE_VERSION_HH

#include <string>

namespace cbws
{

class JsonWriter;

/** Configure-time facts about this binary. */
struct BuildInfo
{
    const char *gitSha;    ///< short SHA, "-dirty" suffix if unclean
    const char *compiler;  ///< e.g. "GNU 13.2.0"
    const char *buildType; ///< e.g. "RelWithDebInfo"
    const char *cxxFlags;  ///< base + build-type compile flags
};

/** The stamped facts for the running binary. */
const BuildInfo &buildInfo();

/** "sha (compiler, buildType)" one-liner for banners/logs. */
std::string buildSummary();

/**
 * Emit the provenance object (git_sha, compiler, build_type,
 * cxx_flags) as the value at the writer's current position. The
 * caller supplies the surrounding key and any schema_version field —
 * schema versions belong to the artifact, not the build.
 */
void writeProvenance(JsonWriter &w);

} // namespace cbws

#endif // CBWS_BASE_VERSION_HH
