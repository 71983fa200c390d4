/**
 * @file
 * Exact-vs-sampled differential harness: measured error bounds.
 *
 * A sampled run (exp::SimMode::Sampled) is only useful if its error
 * against the cycle-accurate oracle is *measured*, not assumed. This
 * module runs the same grid in both modes — fixed-frequency sweeps
 * (compareModes) or energy-managed cells (compareManagedModes) — and
 * reports one ModeComparison:
 *
 *  - per-cell total-time error (the direct fidelity of the fast path),
 *  - per-predictor slowdown-prediction error envelopes: each registry
 *    predictor consumes the *sampled* base-frequency record through
 *    RecordView and predicts the slowdown at every other grid
 *    frequency; the envelope compares that against the slowdown the
 *    *exact* runs actually exhibit — the end-to-end number the paper's
 *    use case (DVFS performance prediction) cares about,
 *  - both grid digests and wall-clock times, so CI can pin the sampled
 *    fingerprint and gate on the speedup/error trade-off.
 */

#ifndef DVFS_EXP_SWEEP_DIFFERENTIAL_HH
#define DVFS_EXP_SWEEP_DIFFERENTIAL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "exp/sweep/fingerprint.hh"
#include "exp/sweep/sweep.hh"
#include "sim/sampling.hh"

namespace dvfs::exp::sweep {

/** Slowdown-prediction error envelope of one predictor. */
struct PredictorErrorBound {
    std::string predictor;
    double meanAbsPct = 0.0;  ///< mean |pred - actual|/actual, percent
    double maxAbsPct = 0.0;   ///< worst cell, percent
    std::size_t samples = 0;  ///< (workload, seed, target-freq) triples

    /**
     * Same envelope with the predictor fed the *exact* base record —
     * the predictor's inherent model error on this grid. The spread
     * between meanAbsPct and this is the error sampling itself adds.
     */
    double meanAbsPctExactFed = 0.0;
    double maxAbsPctExactFed = 0.0;
};

/**
 * Everything one exact-vs-sampled differential run measured, for a
 * fixed-frequency grid or a managed one.
 */
struct ModeComparison {
    /** Window placement the sampled side ran with. */
    sim::SamplingConfig sampling;

    /** Cells per mode (managed baselines excluded). */
    std::size_t cells = 0;

    /** Per-cell signed total-time error, percent, flattened order. */
    std::vector<double> cellTimeErrPct;
    double meanAbsTimeErrPct = 0.0;
    double maxAbsTimeErrPct = 0.0;

    /**
     * Slowdown error of the sampled simulation itself, the headline
     * fidelity gate. On a fixed grid: for every (workload, seed,
     * target frequency), how far the sampled T_s(f)/T_s(f0) lands
     * from the exact T_e(f)/T_e(f0). On a managed grid: how far the
     * sampled achieved slowdown T_managed/T_fixedHighest lands from
     * the exact one. Either way the ratio is taken within a mode, so
     * systematic per-cell time bias cancels, exactly as it does for
     * the paper's use case (relative performance across DVFS states).
     */
    double meanAbsSlowdownErrPct = 0.0;
    double maxAbsSlowdownErrPct = 0.0;
    std::size_t slowdownSamples = 0;

    /** Slowdown-prediction envelopes, registry order (fixed grids). */
    std::vector<PredictorErrorBound> predictors;

    /** Grid digests (gridDigest over each mode's cells). */
    std::uint64_t exactDigest = 0;
    std::uint64_t sampledDigest = 0;

    /** Wall-clock seconds each mode took (whole grid). */
    double exactWallSec = 0.0;
    double sampledWallSec = 0.0;

    /** Sampling stats summed over all sampled cells. */
    sim::SampleStats sampleTotals;

    /** DVFS transitions summed over the sampled cells (managed grids). */
    std::uint64_t transitions = 0;

    /** Grid-level wall-clock speedup of sampled over exact. */
    double
    speedup() const
    {
        return sampledWallSec > 0.0 ? exactWallSec / sampledWallSec : 0.0;
    }

    /** Mean over predictors of meanAbsPct (the headline number). */
    double meanPredictorErrPct() const;

    /** Max over predictors of maxAbsPct. */
    double maxPredictorErrPct() const;
};

/**
 * Run @p spec in both modes and measure the error bounds.
 *
 * @p spec.frequencies.front() is the prediction base; a grid with a
 * single frequency yields empty predictor envelopes (there is nothing
 * to predict) but still measures per-cell time error.
 * spec.runOptions.mode/sampling are overridden per side.
 */
ModeComparison compareModes(const SweepSpec &spec,
                            const sim::SamplingConfig &sampling,
                            unsigned workers = 1);

/**
 * Run every (workload, seed) cell under the energy manager in both
 * modes (plus fixed-at-highest baselines per mode) and measure the
 * sampled side's error and speedup. @p sampling applies to the
 * sampled side's managed cells and baseline alike. Cells flatten
 * seed-innermost; walls time the managed grids only. Predictor
 * envelopes stay empty: nothing is predicted from a managed run.
 */
ModeComparison
compareManagedModes(const std::vector<wl::WorkloadParams> &workloads,
                    const mgr::ManagerConfig &mgrCfg,
                    const power::VfTable &table,
                    const sim::SamplingConfig &sampling,
                    const std::vector<std::uint64_t> &seeds = {42},
                    unsigned workers = 1);

} // namespace dvfs::exp::sweep

#endif // DVFS_EXP_SWEEP_DIFFERENTIAL_HH
