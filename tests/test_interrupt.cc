/**
 * @file
 * Graceful SIGINT/SIGTERM handling in runMatrix: the interrupt flag
 * must stop new cells at the boundary, the in-flight checkpoint must
 * be sealed (never torn) before the process exits 130, and a resumed
 * run must be byte-identical to an uninterrupted one. The handler
 * itself is exercised with a real raise() through the sigaction seam;
 * the exiting runs execute in death-test children.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "sim/checkpoint.hh"
#include "sim/experiment.hh"
#include "test_util.hh"
#include "workloads/registry.hh"

namespace cbws
{
namespace
{

std::vector<WorkloadPtr>
testWorkloads()
{
    std::vector<WorkloadPtr> w;
    w.push_back(findWorkload("nw"));
    w.push_back(findWorkload("fft-simlarge"));
    return w;
}

const std::vector<std::string> kSchemes = {"No-Prefetch", "Stride"};
constexpr std::uint64_t kInsts = 20000;
constexpr std::uint64_t kSeed = 42;

ExperimentMatrix
run(const MatrixOptions &options)
{
    return runMatrix(testWorkloads(), kSchemes, SystemConfig(), kInsts,
                     kSeed, options);
}

MatrixOptions
withCheckpoint(const std::string &path)
{
    MatrixOptions options;
    options.jobs = 1;
    options.checkpointPath = path;
    return options;
}

std::string
cleanRunJson()
{
    MatrixOptions options;
    options.jobs = 1;
    return test::matrixJson(run(options));
}

Checkpoint::Header
testHeader()
{
    return matrixCheckpointHeader({"nw", "fft-simlarge"}, kSchemes,
                                  SystemConfig(), kInsts, kSeed);
}

std::vector<std::string>
readLines(const std::string &path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

class InterruptTest : public ::testing::Test
{
  protected:
    void SetUp() override { clearMatrixInterrupt(); }
    void TearDown() override { clearMatrixInterrupt(); }
};

TEST_F(InterruptTest, RequestFlagRoundTrip)
{
    EXPECT_FALSE(matrixInterruptRequested());
    requestMatrixInterrupt();
    EXPECT_TRUE(matrixInterruptRequested());
    clearMatrixInterrupt();
    EXPECT_FALSE(matrixInterruptRequested());
}

TEST_F(InterruptTest, SignalHandlerSetsTheFlag)
{
    installMatrixSignalHandlers();
    ASSERT_FALSE(matrixInterruptRequested());
    // SA_RESETHAND: this first SIGTERM is caught and resets the
    // disposition to default, so raise it exactly once.
    ::raise(SIGTERM);
    EXPECT_TRUE(matrixInterruptRequested());
}

TEST_F(InterruptTest, InterruptExits130AtTheBoundary)
{
    const std::string path =
        testing::TempDir() + "cbws_interrupt_boundary.ckpt";
    std::remove(path.c_str());
    EXPECT_EXIT(
        {
            requestMatrixInterrupt();
            run(withCheckpoint(path));
        },
        testing::ExitedWithCode(130), "interrupted");
    // The flag was up before the first cell: nothing was simulated,
    // but the checkpoint exists, sealed and resumable.
    Checkpoint sealed;
    ASSERT_TRUE(sealed.load(path, testHeader()).ok());
    EXPECT_EQ(sealed.resumedCells(), 0u);

    // Without a checkpoint the exit status is the same.
    MatrixOptions options;
    options.jobs = 1;
    EXPECT_EXIT(
        {
            requestMatrixInterrupt();
            run(options);
        },
        testing::ExitedWithCode(130), "no checkpoint");
    std::remove(path.c_str());
}

TEST_F(InterruptTest, InterruptSealsAndResumeIsByteIdentical)
{
    const std::string path =
        testing::TempDir() + "cbws_interrupt_resume.ckpt";
    std::remove(path.c_str());

    // Interrupted run: the flag is already set, so the matrix drains
    // immediately — but the checkpoint must still be opened, sealed
    // and left resumable (this is the SIGINT-mid-run seam with the
    // race pinned to "before any cell").
    EXPECT_EXIT(
        {
            requestMatrixInterrupt();
            run(withCheckpoint(path));
        },
        testing::ExitedWithCode(130), "");

    const ExperimentMatrix resumed = run(withCheckpoint(path));
    EXPECT_EQ(test::matrixJson(resumed), cleanRunJson());
    std::remove(path.c_str());
}

TEST_F(InterruptTest, PartialCellsSurviveAndAreNotResimulated)
{
    // Manufacture a genuinely partial checkpoint with a shard run
    // (shard 0 of 2 = half the cells), then point an ordinary run at
    // it: the recorded cells must be restored, the rest simulated,
    // and the result byte-identical to a clean run.
    const std::string path =
        testing::TempDir() + "cbws_interrupt_shard.ckpt";
    std::remove(path.c_str());
    MatrixOptions shard = withCheckpoint(path);
    shard.shard = {0, 2};
    EXPECT_EXIT(run(shard), testing::ExitedWithCode(0), "");
    {
        Checkpoint ckpt;
        ASSERT_TRUE(ckpt.load(path, testHeader()).ok());
        EXPECT_EQ(ckpt.resumedCells(), 2u); // half of 2x2
    }
    const std::vector<std::string> partial = readLines(path);

    const ExperimentMatrix resumed = run(withCheckpoint(path));
    EXPECT_EQ(test::matrixJson(resumed), cleanRunJson());
    // The restored cells stay as written; only the other half is
    // appended after them.
    const std::vector<std::string> full = readLines(path);
    ASSERT_EQ(full.size(), partial.size() + 2);
    EXPECT_TRUE(std::equal(partial.begin(), partial.end(), full.begin()));
    std::remove(path.c_str());
}

} // namespace
} // namespace cbws
