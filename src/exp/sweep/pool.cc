#include "exp/sweep/pool.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "sim/log.hh"

namespace dvfs::exp::sweep {

unsigned
defaultWorkers()
{
    if (const char *env = std::getenv("DVFS_SWEEP_WORKERS")) {
        char *end = nullptr;
        long v = std::strtol(env, &end, 10);
        if (end != env && v >= 1)
            return static_cast<unsigned>(v);
        warn("ignoring invalid DVFS_SWEEP_WORKERS='%s'", env);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

void
runIndexed(std::size_t n, unsigned workers,
           const std::function<void(std::size_t)> &fn,
           const ProgressFn &on_progress)
{
    if (workers == 0)
        fatal("sweep: worker count must be at least 1 (got 0)");

    std::atomic<std::size_t> next{0};
    std::atomic<bool> cancelled{false};
    std::size_t done = 0;  // guarded by mtx
    std::mutex mtx;
    std::optional<SweepError> failure;  // guarded by mtx

    // Every thread claims the next unclaimed index until the cursor
    // runs off the end or a failure cancels the rest.
    auto loop = [&] {
        while (!cancelled.load(std::memory_order_acquire)) {
            const std::size_t i = next.fetch_add(1);
            if (i >= n)
                return;
            std::optional<std::string> what;
            try {
                fn(i);
            } catch (const std::exception &e) {
                what = e.what();
            } catch (...) {
                what = "unknown exception";
            }
            if (what) {
                std::lock_guard<std::mutex> lock(mtx);
                if (!failure)
                    failure.emplace(i, *what);
                cancelled.store(true, std::memory_order_release);
                return;
            }
            if (on_progress) {
                std::lock_guard<std::mutex> lock(mtx);
                on_progress(++done, n);
            }
        }
    };

    std::vector<std::thread> threads;
    for (std::size_t t = 1; t < std::min<std::size_t>(workers, n); ++t)
        threads.emplace_back(loop);
    loop();
    for (auto &t : threads)
        t.join();

    if (failure)
        throw *failure;
}

} // namespace dvfs::exp::sweep
