/**
 * @file
 * An interrupted matrix run (SIGINT or SIGKILL; neither is caught)
 * leaves a checkpoint holding the cells finished so far. Rerunning
 * against it must restore those cells as written, never re-simulate
 * them, and append only the missing cells after them.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "sim/checkpoint.hh"
#include "sim/experiment.hh"
#include "sim/report.hh"
#include "workloads/registry.hh"

namespace cbws
{
namespace
{

const std::vector<std::string> kSchemes = {"No-Prefetch", "Stride"};
constexpr std::uint64_t kInsts = 20000;
constexpr std::uint64_t kSeed = 42;

class InterruptTest : public ::testing::Test
{
  protected:
    void SetUp() override { std::remove(path_.c_str()); }
    void TearDown() override { std::remove(path_.c_str()); }

    ExperimentMatrix
    run(const std::string &checkpoint = "")
    {
        MatrixOptions options;
        options.jobs = 1;
        options.checkpointPath = checkpoint;
        std::vector<WorkloadPtr> workloads;
        workloads.push_back(findWorkload("nw"));
        workloads.push_back(findWorkload("fft-simlarge"));
        return runMatrix(workloads, kSchemes, SystemConfig(), kInsts,
                         kSeed, options);
    }

    std::vector<std::string>
    readLines() const
    {
        std::ifstream in(path_);
        std::vector<std::string> lines;
        std::string line;
        while (std::getline(in, line))
            lines.push_back(line);
        return lines;
    }

    void
    writeLines(const std::vector<std::string> &lines) const
    {
        std::ofstream out(path_, std::ios::trunc);
        for (const auto &line : lines)
            out << line << "\n";
    }

    const std::string path_ =
        testing::TempDir() + "cbws_interrupt_partial.ckpt";
};

/** Every cell of @p matrix, row-major, as one JSON document. */
std::string
matrixJson(const ExperimentMatrix &matrix)
{
    std::vector<SimResult> cells;
    for (const auto &row : matrix.rows)
        cells.insert(cells.end(), row.byPrefetcher.begin(),
                     row.byPrefetcher.end());
    return toJson(cells);
}

TEST_F(InterruptTest, PartialCellsSurviveAndAreNotResimulated)
{
    const ExperimentMatrix clean = run();

    // A full checkpointed run leaves header + provenance + 4 cells;
    // keeping 2 cells is the on-disk state of a run interrupted
    // halfway through the 2x2 matrix.
    run(path_);
    std::vector<std::string> partial = readLines();
    ASSERT_EQ(partial.size(), 2u + 4u);
    partial.resize(2 + 2);

    // Forge the first restored cell with a cycle count no simulation
    // produces, under a valid checksum: if the rerun re-simulated it,
    // the forged value would be replaced.
    Result<SimResult> first = parseCheckpointCell(partial[2]);
    ASSERT_TRUE(first.ok()) << first.error().str();
    SimResult forged = first.value();
    forged.core.cycles += 1000003;
    partial[2] = checkpointCellLine(forged);
    writeLines(partial);
    {
        Checkpoint ckpt;
        ASSERT_TRUE(ckpt.open(path_, matrixCheckpointHeader(
                                         {"nw", "fft-simlarge"}, kSchemes,
                                         SystemConfig(), kInsts, kSeed))
                        .ok());
        EXPECT_EQ(ckpt.resumedCells(), 2u);
    }

    const ExperimentMatrix resumed = run(path_);
    const SimResult &restored = resumed.result(
        resumed.rows[0].workload == forged.workload ? 0 : 1,
        forged.prefetcher);
    EXPECT_EQ(restored.core.cycles, forged.core.cycles)
        << "a restored cell was re-simulated";

    // Apart from the forged counter the result equals a clean run.
    SimResult unforged = restored;
    unforged.core.cycles = first.value().core.cycles;
    std::vector<SimResult> cells;
    for (const auto &row : resumed.rows)
        for (const auto &cell : row.byPrefetcher)
            cells.push_back(&cell == &restored ? unforged : cell);
    EXPECT_EQ(toJson(cells), matrixJson(clean));

    // The restored cells stay as written; only the other half is
    // appended after them.
    const std::vector<std::string> full = readLines();
    ASSERT_EQ(full.size(), partial.size() + 2);
    EXPECT_TRUE(std::equal(partial.begin(), partial.end(), full.begin()));
}

} // namespace
} // namespace cbws
