/**
 * @file
 * Trace-backed sweeps: record a ground-truth grid once, replay it
 * offline forever.
 *
 * A figure harness needs two things per grid cell: the cell's total
 * execution time (ground truth) and, for base-frequency cells, the
 * full RunView a predictor consumes. ObservedGrid is that surface,
 * backed either by a live sweep (cells freshly simulated, optionally
 * persisted to .dvfstrace files) or by a trace directory (cells
 * loaded, zero simulation). fig3/ablation compute their tables from
 * an ObservedGrid, so a recorded grid replays bit-identically at a
 * fraction of the cost — the record-once/reuse-many move the ROADMAP's
 * caching north star asks for.
 *
 * Cell trace files are named traceFileName(workload, freqMHz, seed)
 * inside the directory; a grid is replayable iff every cell's file is
 * present and valid.
 */

#ifndef DVFS_EXP_SWEEP_TRACE_CACHE_HH
#define DVFS_EXP_SWEEP_TRACE_CACHE_HH

#include <memory>
#include <string>
#include <vector>

#include "exp/sweep/sweep.hh"
#include "pred/run_view.hh"
#include "trace/reader.hh"

namespace dvfs::exp::sweep {

/** One observed grid cell: ground truth + the predictor view. */
struct ObservedCell {
    Frequency freq;
    Tick totalTime = 0;

    /** The predictor-observable surface of this cell's run. */
    std::shared_ptr<const pred::RunView> run;

    const pred::RunView &view() const { return *run; }
};

/** A grid of observed cells, flattened exactly like SweepSpec. */
struct ObservedGrid {
    SweepSpec spec;
    bool replayed = false;  ///< true when loaded from traces
    std::vector<ObservedCell> cells;

    /** Cell by coordinates (workload index, frequency value, seed). */
    const ObservedCell &at(std::size_t workload, Frequency f,
                           std::size_t seed = 0) const;

    /** The live sweep output, when this grid was freshly simulated. */
    std::shared_ptr<const SweepResult> live;
};

/**
 * Simulate every cell of @p spec with runSweep() on @p workers
 * threads and, when @p dir is non-empty, persist each cell as a
 * .dvfstrace in it (the directory is created if needed).
 *
 * @throws trace::TraceError if a trace file cannot be written.
 */
ObservedGrid recordGrid(const SweepSpec &spec, unsigned workers,
                        const std::string &dir = "");

/**
 * Load every cell of @p spec from @p dir without simulating.
 *
 * @throws trace::TraceError if any cell's file is missing or invalid,
 *         or if a loaded trace does not match its cell's coordinates
 *         (wrong workload/seed/frequency).
 */
ObservedGrid loadGrid(const SweepSpec &spec, const std::string &dir);

/** True iff every cell of @p spec has a trace file in @p dir. */
bool gridTracesPresent(const SweepSpec &spec, const std::string &dir);

/**
 * Replay @p spec from @p dir when complete, else record it (and
 * persist into @p dir). The convenience entry point for harnesses'
 * --trace-dir flag.
 */
ObservedGrid observeGrid(const SweepSpec &spec, unsigned workers,
                         const std::string &dir);

} // namespace dvfs::exp::sweep

#endif // DVFS_EXP_SWEEP_TRACE_CACHE_HH
