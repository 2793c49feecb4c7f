/**
 * @file
 * Unit tests of the thread-pool job system: inline degeneration,
 * completion and ordering guarantees, exception propagation through
 * wait(), clean shutdown with queued work, parallelFor and the
 * hardware thread count.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "base/threadpool.hh"

namespace cbws
{
namespace
{

TEST(ThreadPool, InlineModeRunsTasksInSubmissionOrder)
{
    for (unsigned workers : {0u, 1u}) {
        ThreadPool pool(workers);
        EXPECT_EQ(pool.workers(), 0u) << "no thread may be spawned";
        std::vector<int> order;
        for (int i = 0; i < 8; ++i)
            pool.submit([&order, i] { order.push_back(i); });
        // Inline mode: everything already ran inside submit().
        ASSERT_EQ(order.size(), 8u);
        for (int i = 0; i < 8; ++i)
            EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
        pool.wait(); // must be a no-op, not a hang
    }
}

TEST(ThreadPool, WaitCompletesEverySubmittedTask)
{
    ThreadPool pool(4);
    std::atomic<int> done{0};
    constexpr int N = 200;
    for (int i = 0; i < N; ++i)
        pool.submit([&done] { done.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(done.load(), N);

    // The pool is reusable after wait().
    for (int i = 0; i < N; ++i)
        pool.submit([&done] { done.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(done.load(), 2 * N);
}

TEST(ThreadPool, WaitRethrowsFirstTaskException)
{
    ThreadPool pool(2);
    std::atomic<int> done{0};
    pool.submit([] { throw std::runtime_error("task failed"); });
    for (int i = 0; i < 16; ++i)
        pool.submit([&done] { done.fetch_add(1); });
    EXPECT_THROW(pool.wait(), std::runtime_error);
    // A failure poisons only that wait(); later batches are clean.
    pool.submit([&done] { done.fetch_add(1); });
    EXPECT_NO_THROW(pool.wait());
}

TEST(ThreadPool, InlineModePropagatesExceptionFromWait)
{
    ThreadPool pool(1);
    pool.submit([] { throw std::logic_error("inline failure"); });
    EXPECT_THROW(pool.wait(), std::logic_error);
}

TEST(ThreadPool, DestructorDrainsPendingTasks)
{
    std::atomic<int> done{0};
    constexpr int N = 64;
    {
        ThreadPool pool(3);
        for (int i = 0; i < N; ++i)
            pool.submit([&done] { done.fetch_add(1); });
        // No wait(): shutdown must still complete everything.
    }
    EXPECT_EQ(done.load(), N);
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce)
{
    for (unsigned jobs : {1u, 2u, 4u, 9u}) {
        constexpr std::size_t N = 500;
        // Disjoint slots: no synchronisation needed, and a repeated
        // or skipped index shows up as a count != 1.
        std::vector<int> visits(N, 0);
        parallelFor(jobs, N,
                    [&visits](std::size_t i) { ++visits[i]; });
        for (std::size_t i = 0; i < N; ++i)
            EXPECT_EQ(visits[i], 1) << "index " << i;
    }
}

TEST(ParallelFor, ZeroCountIsANoOp)
{
    bool called = false;
    parallelFor(8, 0, [&called](std::size_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST(ParallelFor, PropagatesBodyException)
{
    EXPECT_THROW(parallelFor(4, 32,
                             [](std::size_t i) {
                                 if (i == 7)
                                     throw std::runtime_error("boom");
                             }),
                 std::runtime_error);
}

TEST(ThreadPool, HardwareJobsIsPositive)
{
    EXPECT_GE(ThreadPool::hardwareJobs(), 1u);
}

} // anonymous namespace
} // namespace cbws
