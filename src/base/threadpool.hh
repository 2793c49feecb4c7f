/**
 * @file
 * Minimal fixed-size thread pool used to fan independent simulation
 * runs across cores.
 *
 * Tasks are plain std::function<void()> closures. The pool makes two
 * guarantees the experiment runner depends on:
 *
 *  - wait() returns only after every submitted task has finished, and
 *    rethrows the first exception any task raised (subsequent
 *    exceptions are swallowed — the batch is already poisoned).
 *  - Tasks are started in submission order (completion order is, of
 *    course, up to the scheduler). Determinism of results therefore
 *    has to come from tasks writing to disjoint, preallocated slots,
 *    which is how runMatrix uses the pool.
 *
 * A pool of zero or one workers degenerates to running every task
 * inline inside submit(), which keeps single-job runs byte-identical
 * to code that never heard of the pool (no thread is ever spawned).
 */

#ifndef CBWS_BASE_THREADPOOL_HH
#define CBWS_BASE_THREADPOOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "base/profiler.hh"
#include "base/stats.hh"

namespace cbws
{

class ThreadPool
{
  public:
    /**
     * @param workers thread count; 0 and 1 both mean "run tasks
     *        inline in submit()" (no threads are created).
     */
    explicit ThreadPool(unsigned workers);

    /** Joins the workers; pending tasks are completed first. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Worker threads actually running (0 in inline mode). */
    unsigned workers() const
    {
        return static_cast<unsigned>(threads_.size());
    }

    /** Enqueue a task (runs it inline when the pool has no threads). */
    void submit(std::function<void()> task);

    /**
     * Block until every task submitted so far has completed, then
     * rethrow the first exception raised by any of them (if any).
     * The pool is reusable afterwards.
     */
    void wait();

    /** Hardware thread count, at least 1. */
    static unsigned hardwareJobs();

  private:
    void workerLoop(unsigned index);
    void runTask(std::function<void()> &task);

    std::vector<std::thread> threads_;
    std::deque<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable wake_;   ///< workers: work or shutdown
    std::condition_variable idle_;   ///< wait(): queue drained
    std::size_t inFlight_ = 0;       ///< queued + currently running
    std::exception_ptr firstError_;  ///< first task exception
    bool shutdown_ = false;

    /**
     * Self-profiling (recorded only while prof::enabled()): each
     * worker splits its time into busy / queue-wait / lock-wait and
     * job durations feed a shared histogram (guarded by mutex_).
     * The destructor folds the totals into the global profiler.
     */
    std::vector<prof::WorkerTotals> workerStats_;
    Histogram jobMicros_{64, 50.0};
};

/**
 * Run @p body(i) for every i in [0, count) using @p jobs workers.
 * jobs <= 1 runs the loop serially on the calling thread. Iterations
 * must be independent; exceptions propagate per ThreadPool::wait().
 */
void parallelFor(unsigned jobs, std::size_t count,
                 const std::function<void(std::size_t)> &body);

} // namespace cbws

#endif // CBWS_BASE_THREADPOOL_HH
