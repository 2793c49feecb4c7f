#include "base/threadpool.hh"

#include <atomic>
#include <chrono>

namespace cbws
{

namespace
{

double
secondsBetween(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

} // anonymous namespace

ThreadPool::ThreadPool(unsigned workers)
{
    if (workers <= 1)
        return; // inline mode
    workerStats_.resize(workers);
    threads_.reserve(workers);
    for (unsigned i = 0; i < workers; ++i)
        threads_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        shutdown_ = true;
    }
    wake_.notify_all();
    for (auto &t : threads_)
        t.join();
    if (prof::enabled()) {
        bool observed = false;
        for (const auto &w : workerStats_)
            observed = observed || w.jobs > 0;
        if (observed)
            prof::addPoolStats(workerStats_, jobMicros_);
    }
}

void
ThreadPool::runTask(std::function<void()> &task)
{
    try {
        task();
    } catch (...) {
        std::unique_lock<std::mutex> lock(mutex_);
        if (!firstError_)
            firstError_ = std::current_exception();
    }
}

void
ThreadPool::workerLoop(unsigned index)
{
    using clock = std::chrono::steady_clock;
    prof::WorkerTotals &stats = workerStats_[index];
    while (true) {
        // Sampled once per iteration; profiling can only ever switch
        // from off to on, so at worst one job goes untimed.
        const bool timed = prof::enabled();
        std::function<void()> task;
        {
            const auto t0 = timed ? clock::now() : clock::time_point();
            std::unique_lock<std::mutex> lock(mutex_);
            const auto t1 = timed ? clock::now() : clock::time_point();
            wake_.wait(lock, [this] {
                return shutdown_ || !queue_.empty();
            });
            if (timed) {
                const auto t2 = clock::now();
                stats.lockWaitSeconds += secondsBetween(t0, t1);
                stats.queueWaitSeconds += secondsBetween(t1, t2);
            }
            if (queue_.empty())
                return; // shutdown with nothing left to do
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        const auto b0 = timed ? clock::now() : clock::time_point();
        runTask(task);
        const auto b1 = timed ? clock::now() : clock::time_point();
        {
            const auto l0 = timed ? clock::now() : clock::time_point();
            std::unique_lock<std::mutex> lock(mutex_);
            if (timed) {
                stats.lockWaitSeconds +=
                    secondsBetween(l0, clock::now());
                const double busy = secondsBetween(b0, b1);
                stats.busySeconds += busy;
                ++stats.jobs;
                jobMicros_.sample(busy * 1e6);
            }
            if (--inFlight_ == 0)
                idle_.notify_all();
        }
    }
}

void
ThreadPool::submit(std::function<void()> task)
{
    if (threads_.empty()) {
        // Inline mode: same-thread execution, same error contract.
        runTask(task);
        return;
    }
    {
        std::unique_lock<std::mutex> lock(mutex_);
        queue_.push_back(std::move(task));
        ++inFlight_;
    }
    wake_.notify_one();
}

void
ThreadPool::wait()
{
    std::exception_ptr err;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        idle_.wait(lock, [this] { return inFlight_ == 0; });
        err = firstError_;
        firstError_ = nullptr;
    }
    if (err)
        std::rethrow_exception(err);
}

unsigned
ThreadPool::hardwareJobs()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

void
parallelFor(unsigned jobs, std::size_t count,
            const std::function<void(std::size_t)> &body)
{
    if (jobs <= 1 || count <= 1) {
        for (std::size_t i = 0; i < count; ++i)
            body(i);
        return;
    }
    ThreadPool pool(jobs < count ? jobs
                                 : static_cast<unsigned>(count));
    std::atomic<std::size_t> next{0};
    const unsigned drainers = pool.workers();
    for (unsigned w = 0; w < drainers; ++w) {
        pool.submit([&next, count, &body] {
            for (std::size_t i = next.fetch_add(1); i < count;
                 i = next.fetch_add(1)) {
                body(i);
            }
        });
    }
    pool.wait();
}

} // namespace cbws
