/**
 * @file
 * Shared-cursor thread pool for embarrassingly parallel sweeps.
 *
 * The evaluation pipeline is dominated by independent simulation runs
 * (benchmark x frequency x seed grids). Each cell builds its own
 * System, so cells share no mutable state and the only engine problems
 * are load balance, deterministic aggregation, and failure handling:
 *
 *  - Every thread (the caller included) claims the next unclaimed cell
 *    from one atomic cursor, so an idle thread always picks up the
 *    next cell and a straggler benchmark never serializes the tail of
 *    a sweep.
 *  - Results are keyed by cell index (the caller writes out[i]), so
 *    aggregated output is bit-identical to the serial order no matter
 *    how cells were scheduled.
 *  - The first cell that throws cancels all not-yet-started cells and
 *    is reported to the caller as a SweepError carrying the cell index;
 *    workers are always joined before runIndexed returns or throws.
 */

#ifndef DVFS_EXP_SWEEP_POOL_HH
#define DVFS_EXP_SWEEP_POOL_HH

#include <cstddef>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

namespace dvfs::exp::sweep {

/** Thrown when a sweep cell fails; identifies the first failing cell. */
class SweepError : public std::runtime_error
{
  public:
    SweepError(std::size_t cell, const std::string &what)
        : std::runtime_error("sweep cell " + std::to_string(cell) +
                             " failed: " + what),
          _cell(cell)
    {
    }

    /** Index of the cell whose exception aborted the sweep. */
    std::size_t cell() const { return _cell; }

  private:
    std::size_t _cell;
};

/** Serialized progress callback: (cells done, cells total). */
using ProgressFn = std::function<void(std::size_t, std::size_t)>;

/**
 * Worker count to use when the caller has no opinion:
 * DVFS_SWEEP_WORKERS from the environment if set and >= 1, else
 * std::thread::hardware_concurrency(), else 1.
 */
unsigned defaultWorkers();

/**
 * Execute @p fn(i) for every i in [0, n) on @p workers threads.
 *
 * The calling thread works too: min(@p workers, @p n) - 1 threads are
 * spawned beside it, so @p workers == 1 runs inline in index order
 * (the serial baseline). @p workers == 0 is a configuration error and
 * fatal()s.
 *
 * @p fn must only touch per-cell state (it runs concurrently).
 * @p on_progress, if set, is invoked under a lock after each completed
 * cell.
 *
 * @throws SweepError wrapping the first cell failure, after cancelling
 *         remaining cells and joining all workers.
 */
void runIndexed(std::size_t n, unsigned workers,
                const std::function<void(std::size_t)> &fn,
                const ProgressFn &on_progress = nullptr);

/**
 * Map @p fn over [0, n) with runIndexed, collecting results by cell
 * index. R must be default-constructible and movable.
 */
template <typename R>
std::vector<R>
sweepMap(std::size_t n, unsigned workers,
         const std::function<R(std::size_t)> &fn,
         const ProgressFn &on_progress = nullptr)
{
    std::vector<R> out(n);
    runIndexed(
        n, workers, [&](std::size_t i) { out[i] = fn(i); }, on_progress);
    return out;
}

} // namespace dvfs::exp::sweep

#endif // DVFS_EXP_SWEEP_POOL_HH
