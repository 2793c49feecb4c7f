/**
 * @file
 * Hierarchical named metrics registry.
 *
 * One source of truth for everything a run can report: components
 * register values under dotted paths ("core0.l1d.miss_rate") with a
 * kind and a description. The statsdump text format, the report JSON
 * `metrics` section and the Chrome-trace counter dumps render from
 * this registry; the report's main body keeps its own field list,
 * whose byte order the goldens pin.
 *
 * Kinds:
 *  - Scalar:    a uint64 counter.
 *  - Real:      a double gauge/ratio.
 *  - Vector:    an ordered list of uint64 (per-class, per-bucket).
 *  - Histogram: base/stats.hh Histogram contents (bucket counts,
 *               width, explicit overflow).
 *  - Formula:   a double derived from other metrics; carries the
 *               expression text so consumers can re-derive it.
 *
 * Rendering rules the goldens depend on: dumpText() emits only
 * Scalar/Real/Formula metrics, in registration order, in the exact
 * historical statsdump line format — Vector/Histogram metrics are
 * JSON-only, so promoting richer data into the registry never
 * changes the text dump's bytes.
 */

#ifndef CBWS_BASE_METRICS_HH
#define CBWS_BASE_METRICS_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "base/stats.hh"

namespace cbws
{

class JsonWriter;

class MetricsRegistry
{
  public:
    enum class Kind
    {
        Scalar,
        Real,
        Vector,
        Histogram,
        Formula,
    };

    struct Metric
    {
        std::string path; ///< dotted hierarchy, e.g. "core0.l1d.misses"
        std::string desc;
        Kind kind = Kind::Scalar;
        std::uint64_t uintValue = 0;              ///< Scalar
        double realValue = 0.0;                   ///< Real / Formula
        std::vector<std::uint64_t> values;        ///< Vector
        std::vector<std::uint64_t> buckets;       ///< Histogram
        double bucketWidth = 0.0;                 ///< Histogram
        std::uint64_t overflow = 0;               ///< Histogram
        std::string expr;                         ///< Formula text
    };

    void addScalar(const std::string &path, std::uint64_t value,
                   const std::string &desc);
    void addReal(const std::string &path, double value,
                 const std::string &desc);
    void addVector(const std::string &path,
                   std::vector<std::uint64_t> values,
                   const std::string &desc);
    void addHistogram(const std::string &path, const Histogram &hist,
                      const std::string &desc);
    void addFormula(const std::string &path, double value,
                    const std::string &expr, const std::string &desc);

    /** All metrics, in registration order. */
    const std::vector<Metric> &metrics() const { return metrics_; }

    std::size_t size() const { return metrics_.size(); }
    bool empty() const { return metrics_.empty(); }

    /** Lookup by exact path; nullptr when absent. */
    const Metric *find(const std::string &path) const;

    /**
     * All metrics under @p prefix ("core0" matches "core0.l1d.x" and
     * "core0" itself, never "core01.x") — the hierarchy operation the
     * dotted paths exist for.
     */
    std::vector<const Metric *>
    subtree(const std::string &prefix) const;

    /**
     * Statsdump text rendering: Scalar/Real/Formula only, one
     * `name  value  # desc` line each, byte-identical to the format
     * sim/statsdump.cc always used.
     */
    void dumpText(std::ostream &out) const;

    /**
     * JSON rendering: an object keyed by path; every kind included.
     * Scalars render as numbers; richer kinds as small objects.
     */
    void writeJson(JsonWriter &w) const;

  private:
    Metric &push(const std::string &path, Kind kind,
                 const std::string &desc);

    std::vector<Metric> metrics_;
};

} // namespace cbws

#endif // CBWS_BASE_METRICS_HH
