/**
 * @file
 * Crash-safe checkpoint/resume for the experiment matrix.
 *
 * Every completed (workload, prefetcher) cell is appended to a JSONL
 * checkpoint file as soon as it finishes: one self-checksummed line
 * per cell, preceded by a header line binding the file to one
 * experiment (instruction budget, seed, workload/scheme sets). A run
 * killed mid-matrix can be restarted with the same checkpoint path;
 * finished cells are loaded instead of re-simulated and the resumed
 * run produces a bit-identical ExperimentMatrix (SimResult counters
 * are all integers, so the round-trip through JSON is exact).
 *
 * Robustness properties:
 *  - Appends are atomic at line granularity and flushed eagerly, so a
 *    SIGKILL (or SIGINT) loses at most the cells in flight.
 *  - Every line carries an FNV-1a checksum of its own text; a torn or
 *    corrupted tail line is dropped with a warning, not an error.
 *  - The header records a fingerprint of the experiment; resuming
 *    against a checkpoint from a different experiment or an
 *    incompatible schema_version fails with a clear error instead of
 *    silently mixing results.
 *
 * Format details are documented in docs/FORMATS.md.
 */

#ifndef CBWS_SIM_CHECKPOINT_HH
#define CBWS_SIM_CHECKPOINT_HH

#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "base/result.hh"
#include "sim/simulator.hh"

namespace cbws
{

/** Schema version stamped into checkpoint header and cell lines.
 *  v2: cells carry the DRAM backend name and its counters.
 *  v3: the mem array grew the cross-core interference counters
 *  (cross_core_pollution_misses, l2_bank_conflicts) and multi-core
 *  cells carry "cores" + a "per_core" array. v2 files are rejected on
 *  open (their cells are simply re-simulated from a fresh path).
 *  v4: the per-source pf_life array grew the zoo sources
 *  (multistride/markov/rl), changing its length; older files are
 *  rejected on open for the same reason. */
constexpr unsigned CheckpointSchemaVersion = 4;

/** Serialise one cell result as a checksummed JSONL line (no '\n'). */
std::string checkpointCellLine(const SimResult &result);

/** Parse and checksum-verify one cell line. */
Result<SimResult> parseCheckpointCell(const std::string &line);

/**
 * One experiment's checkpoint file: load-on-open, append-per-cell.
 * Thread-safe: cells may be appended concurrently from pool workers.
 */
class Checkpoint
{
  public:
    /** Identifies the experiment a checkpoint belongs to. */
    struct Header
    {
        std::uint64_t insts = 0;
        std::uint64_t seed = 0;
        /** Hash over workload and scheme names (see fingerprint()). */
        std::uint64_t fingerprint = 0;
    };

    Checkpoint() = default;
    ~Checkpoint();

    Checkpoint(const Checkpoint &) = delete;
    Checkpoint &operator=(const Checkpoint &) = delete;

    /**
     * Open @p path for @p header's experiment. An existing file must
     * carry a matching header (schema, budget, seed, fingerprint) —
     * its intact cell lines are loaded for resume and corrupt ones
     * dropped with a warning. A missing file is created with a fresh
     * header. After open() the file is positioned for appends.
     */
    Result<void> open(const std::string &path, const Header &header);

    /** Result recorded for (workload, prefetcher), else nullptr. */
    const SimResult *find(const std::string &workload,
                          const std::string &prefetcher) const;

    /**
     * Append @p result and flush. Failures degrade gracefully: the
     * error is returned (and the run can continue without
     * checkpointing that cell) — already-appended lines are unharmed.
     * Duplicate cells are ignored so resumed runs never double-write.
     */
    Result<void> append(const SimResult &result);

    /** Cells loaded from a previous run at open() time. */
    std::size_t resumedCells() const { return resumed_; }

    /**
     * Seal the file against the process dying next instruction:
     * flush libc buffers and fsync the fd, so every appended cell is
     * durable on disk. Called at the end of a completed matrix.
     */
    Result<void> sync();

    bool isOpen() const { return file_ != nullptr; }

  private:
    using CellKey = std::pair<std::string, std::string>;

    mutable std::mutex mutex_;
    std::FILE *file_ = nullptr;
    std::map<CellKey, SimResult> cells_;
    std::size_t resumed_ = 0;
};

/**
 * FNV-1a over the names defining an experiment's cell space, plus an
 * optional configuration tag (e.g. the DRAM backend name) so results
 * produced under different timing models can never cross-resume.
 */
std::uint64_t
checkpointFingerprint(const std::vector<std::string> &workloads,
                      const std::vector<std::string> &prefetchers,
                      const std::string &config_tag = std::string());

/**
 * The header binding a runMatrix checkpoint to its experiment: the
 * budget, the seed, and a fingerprint over the workload and scheme
 * names plus every @p config knob that changes a cell's counters —
 * the DRAM backend, the core count and the pf-opts (in any order), so
 * differently configured runs can never cross-resume.
 */
Checkpoint::Header
matrixCheckpointHeader(const std::vector<std::string> &workloads,
                       const std::vector<std::string> &schemes,
                       const SystemConfig &config, std::uint64_t insts,
                       std::uint64_t seed);

} // namespace cbws

#endif // CBWS_SIM_CHECKPOINT_HH
