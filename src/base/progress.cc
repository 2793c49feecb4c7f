#include "base/progress.hh"

#include <cstdio>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace cbws
{

namespace
{

bool
stderrIsTty()
{
#if defined(__unix__) || defined(__APPLE__)
    return isatty(fileno(stderr)) != 0;
#else
    return false;
#endif
}

} // anonymous namespace

ProgressMeter::ProgressMeter(std::string label, std::size_t total,
                             bool enabled)
    : label_(std::move(label)), total_(total), enabled_(enabled),
      tty_(enabled && stderrIsTty()),
      start_(std::chrono::steady_clock::now()), lastRender_(start_)
{
}

ProgressMeter::~ProgressMeter()
{
    finish();
}

void
ProgressMeter::advance(bool restored)
{
    if (!enabled_)
        return;
    done_.fetch_add(1, std::memory_order_relaxed);
    if (restored)
        restored_.fetch_add(1, std::memory_order_relaxed);
    render(false);
}

void
ProgressMeter::addInstructions(std::uint64_t count)
{
    if (!enabled_)
        return;
    instructions_.fetch_add(count, std::memory_order_relaxed);
}

void
ProgressMeter::finish()
{
    if (!enabled_ || finished_)
        return;
    finished_ = true;
    render(true);
}

void
ProgressMeter::render(bool final)
{
    using clock = std::chrono::steady_clock;
    const auto now = clock::now();
    {
        std::lock_guard<std::mutex> lock(renderMutex_);
        // Throttle: a TTY redraws at ~10 Hz, a log file gets a line
        // every couple of seconds at most.
        const double since_last =
            std::chrono::duration<double>(now - lastRender_).count();
        const double min_gap = tty_ ? 0.1 : 2.0;
        if (!final && since_last < min_gap)
            return;
        lastRender_ = now;
    }

    const std::size_t done = done_.load(std::memory_order_relaxed);
    const std::size_t restored =
        restored_.load(std::memory_order_relaxed);
    const std::uint64_t insts =
        instructions_.load(std::memory_order_relaxed);
    const double elapsed =
        std::chrono::duration<double>(now - start_).count();
    const double rate = elapsed > 0.0
        ? static_cast<double>(done) / elapsed
        : 0.0;
    const double ips = elapsed > 0.0
        ? static_cast<double>(insts) / elapsed
        : 0.0;
    const std::size_t left = total_ > done ? total_ - done : 0;
    const double eta =
        rate > 0.0 ? static_cast<double>(left) / rate : 0.0;

    // Live aggregate simulation speed across every worker; only
    // shown once some cell has reported committed instructions.
    char ips_part[48] = "";
    if (insts > 0) {
        std::snprintf(ips_part, sizeof(ips_part), "  %.2fM inst/s",
                      ips / 1e6);
    }

    char line[256];
    if (final) {
        std::snprintf(line, sizeof(line),
                      "[%s] %zu/%zu cells in %.1fs (%.2f cells/s%s, "
                      "%zu restored from cache/checkpoint)",
                      label_.c_str(), done, total_, elapsed, rate,
                      ips_part, restored);
    } else {
        std::snprintf(line, sizeof(line),
                      "[%s] %zu/%zu cells  %.2f cells/s%s  "
                      "ETA %.0fs  restored %zu",
                      label_.c_str(), done, total_, rate, ips_part,
                      eta, restored);
    }

    std::lock_guard<std::mutex> lock(renderMutex_);
    if (tty_) {
        // Rewrite in place; pad to clear a longer previous line.
        std::fprintf(stderr, "\r%-78s%s", line, final ? "\n" : "");
    } else {
        std::fprintf(stderr, "%s\n", line);
    }
    std::fflush(stderr);
}

} // namespace cbws
