/**
 * @file
 * Live progress meter for long cell-matrix runs.
 *
 * Writes to stderr only — stdout carries reports whose bytes are
 * golden-diffed in CI, so progress must never touch it. On a TTY the
 * line rewrites itself in place (\r); otherwise it degrades to an
 * occasional plain line so build logs stay readable. All counters are
 * atomics: worker threads call advance() directly.
 */

#ifndef CBWS_BASE_PROGRESS_HH
#define CBWS_BASE_PROGRESS_HH

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>

namespace cbws
{

class ProgressMeter
{
  public:
    /**
     * @param label short phase tag, e.g. "simulation".
     * @param total number of cells expected.
     * @param enabled when false every call is a cheap no-op, so call
     *        sites don't need their own gating.
     */
    ProgressMeter(std::string label, std::size_t total, bool enabled);

    /** Emits the final line (see finish()). */
    ~ProgressMeter();

    ProgressMeter(const ProgressMeter &) = delete;
    ProgressMeter &operator=(const ProgressMeter &) = delete;

    /**
     * One cell finished. @p restored marks cells satisfied from a
     * cache or checkpoint rather than simulated (reported separately
     * so a resumed run's speed isn't mistaken for simulation speed).
     * Thread-safe.
     */
    void advance(bool restored = false);

    /**
     * Account @p count simulated instructions to this phase; the
     * progress line then carries a live aggregate insts/sec across
     * all workers. Thread-safe; cells report once, at completion.
     */
    void addInstructions(std::uint64_t count);

    /** Force the summary line out (idempotent; ~ calls it). */
    void finish();

  private:
    void render(bool final);

    std::string label_;
    std::size_t total_;
    bool enabled_;
    bool tty_ = false;
    bool finished_ = false;
    std::atomic<std::size_t> done_{0};
    std::atomic<std::size_t> restored_{0};
    std::atomic<std::uint64_t> instructions_{0};
    std::chrono::steady_clock::time_point start_;
    std::mutex renderMutex_;
    std::chrono::steady_clock::time_point lastRender_;
};

} // namespace cbws

#endif // CBWS_BASE_PROGRESS_HH
