/**
 * @file
 * The sweep engine: declarative (workload x frequency x seed) grids
 * executed concurrently with deterministic aggregation.
 *
 * Every figure bench boils down to a grid of independent ground-truth
 * simulations. A SweepSpec names that grid once; runSweep() executes
 * its cells on the shared-cursor pool, each cell in its own isolated
 * System (the cell seed is a pure function of the cell's coordinates,
 * never of its position or schedule), and collects results keyed by
 * cell index. The determinism contract — parallel output bit-identical
 * to the serial run, and existing cells unperturbed by added ones — is
 * spelled out in DESIGN.md section 7 and enforced by the golden-trace
 * tests.
 */

#ifndef DVFS_EXP_SWEEP_SWEEP_HH
#define DVFS_EXP_SWEEP_SWEEP_HH

#include <cstdint>
#include <vector>

#include "exp/experiment.hh"
#include "exp/sweep/pool.hh"
#include "wl/suite.hh"

namespace dvfs::exp::sweep {

/** Coordinates of one cell within a SweepSpec grid. */
struct Cell {
    std::size_t index = 0;     ///< flattened (serial) position
    std::size_t workload = 0;  ///< index into SweepSpec::workloads
    std::size_t freq = 0;      ///< index into SweepSpec::frequencies
    std::size_t seed = 0;      ///< index into SweepSpec::seeds
};

/**
 * A declarative ground-truth sweep: the cross product of workloads,
 * frequencies and machine seeds, flattened row-major with the seed as
 * the innermost dimension.
 *
 * All frequencies of one (workload, seed) pair share the seed value,
 * so a cell's workload sees an identical instruction stream at every
 * operating point — the property every predictor experiment depends
 * on.
 */
struct SweepSpec {
    std::vector<wl::WorkloadParams> workloads;
    std::vector<Frequency> frequencies;
    std::vector<std::uint64_t> seeds{42};

    /** Per-cell run options; the seed field is overridden per cell. */
    RunOptions runOptions{};

    /** Total number of cells. fatal()s on an empty dimension. */
    std::size_t cellCount() const;

    /** Coordinates of the cell at flattened @p index. */
    Cell cell(std::size_t index) const;

    /** Flattened index of (workload, freq, seed) coordinates. */
    std::size_t indexOf(std::size_t workload, std::size_t freq,
                        std::size_t seed = 0) const;

    /** Index of @p f in frequencies; fatal() if absent. */
    std::size_t freqIndex(Frequency f) const;

    /**
     * @p n decorrelated replicate seeds split off @p base with the
     * workload RNG. Seed i is a pure function of (base, i), so
     * growing a replication study never changes earlier replicates.
     */
    static std::vector<std::uint64_t> replicateSeeds(std::uint64_t base,
                                                     std::size_t n);
};

/** All cells of a completed sweep, in flattened (serial) order. */
struct SweepResult {
    SweepSpec spec;
    std::vector<FixedRunOutput> cells;

    /** Cell output by coordinates. */
    const FixedRunOutput &at(std::size_t workload, std::size_t freq,
                             std::size_t seed = 0) const;

    /** Cell output by workload index and frequency value. */
    const FixedRunOutput &at(std::size_t workload, Frequency f,
                             std::size_t seed = 0) const;
};

/**
 * Run every cell of @p spec on @p workers threads of the
 * shared-cursor pool (pool.hh); 1 is the serial baseline and 0 is
 * fatal. Blocks until the sweep completes or fails.
 *
 * @throws SweepError on the first failing cell (remaining cells are
 *         cancelled).
 */
SweepResult runSweep(const SweepSpec &spec, unsigned workers);

} // namespace dvfs::exp::sweep

#endif // DVFS_EXP_SWEEP_SWEEP_HH
