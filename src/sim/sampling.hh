/**
 * @file
 * Interval-sampling controller: detail <-> fast-forward phase driver.
 *
 * Sampled simulation alternates between *detail* windows, executed
 * with the full cycle-accurate machinery, and *fast-forward* gaps, in
 * which timed actions are charged from an analytical model fitted
 * online during the detail windows (see uarch/fastpath.hh and the
 * batching executor in os/system.cc). The controller owns only the
 * phase schedule: window boundaries are simulated-time marks scheduled
 * on the event queue, so the phase a given tick falls into is a pure
 * function of the sampling configuration and of the run's own observed
 * integer state — never of host scheduling — and sampled runs are
 * exactly as deterministic and worker-count-independent as exact runs
 * (DESIGN.md section 11).
 *
 * Two refinements on top of the fixed cadence:
 *
 *  - *Forced detail*: forceDetail() cuts a fast-forward gap short (or
 *    extends the current detail window) so that DVFS transitions and —
 *    in managed runs (os::System::enableSampling) — GC boundaries are
 *    always observed by the cycle-accurate path, never synthesized from
 *    stale eras.
 *  - *Adaptive placement*: when maxGapWindow raises the cap above
 *    gapWindow, each detail -> gap flip consults the model's fitted-
 *    term drift (an integer permille, see FastPathModel::
 *    lastDriftPermille) and doubles the upcoming gap while consecutive
 *    windows agree, shrinking back to the base gap on drift, phase
 *    change or any forced window — long gaps in steady phases, full
 *    detail around transitions.
 */

#ifndef DVFS_SIM_SAMPLING_HH
#define DVFS_SIM_SAMPLING_HH

#include <cstdint>
#include <functional>
#include <utility>

#include "sim/event_queue.hh"
#include "sim/time.hh"

namespace dvfs::sim {

/** Window schedule of a sampled run. */
struct SamplingConfig {
    /**
     * Initial detailed period before the first fast-forward gap.
     * Covers the serial setup phase and warms caches and the
     * analytical model. 0 means "start alternating immediately".
     */
    Tick startupDetail = 60 * kTicksPerUs;

    /** Length of each periodic detail window. Must be positive. */
    Tick detailWindow = 30 * kTicksPerUs;

    /**
     * Length of each fast-forwarded gap between detail windows.
     * 0 disables fast-forwarding entirely: the run stays in detail
     * phase forever and is bit-identical to an exact run.
     *
     * The defaults (60us startup, 30us detail / 980us gap, ~3%
     * detail coverage) are the measured sweet spot on the fig3 grid:
     * >= 10x per-cell speedup at <= 5% mean slowdown-prediction
     * error (see bench/fig9_sampling_accuracy.cc).
     */
    Tick gapWindow = 980 * kTicksPerUs;

    /**
     * Adaptive-placement gap cap. 0 (or anything <= gapWindow) keeps
     * the gap fixed at gapWindow — the pre-adaptive schedule. When
     * larger, gaps double from gapWindow up to this cap while the
     * fitted model reports steady terms, and snap back to gapWindow
     * on drift or a forced window.
     */
    Tick maxGapWindow = 0;

    /**
     * Fitted-term drift (permille, see FastPathModel::
     * lastDriftPermille) at or below which consecutive detail windows
     * count as "steady" for gap stretching.
     */
    std::uint32_t driftThresholdPermille = 50;
};

/** Execution fidelity of the current instant. */
enum class SamplePhase {
    Detail,      ///< cycle-accurate execution (model observation)
    FastForward, ///< analytical charging (model application)
};

/** Accounting of one sampled run, reported with the run output. */
struct SampleStats {
    /** Buckets of the gap-stretch histogram (powers of two). */
    static constexpr int kGapStretchBuckets = 8;

    std::uint64_t detailWindows = 0; ///< completed detail windows
    std::uint64_t ffWindows = 0;     ///< completed fast-forward gaps
    Tick detailTicks = 0;            ///< simulated time spent in detail
    Tick ffTicks = 0;                ///< simulated time fast-forwarded
    std::uint64_t detailActions = 0; ///< timed actions executed in detail
    std::uint64_t ffActions = 0;     ///< timed actions charged analytically
    std::uint64_t ffCommits = 0;     ///< lump-commit events (batches)
    std::uint64_t ffFallbacks = 0;   ///< cold-model naive charges
    std::uint64_t forcedWindows = 0; ///< forceDetail calls that acted
    std::uint64_t transitions = 0;   ///< DVFS transitions observed

    /**
     * Gaps entered at stretch factor 2^k (bucket k). Bucket 0 counts
     * base-length gaps; all gaps of a non-adaptive run land there.
     */
    std::uint64_t gapStretch[kGapStretchBuckets] = {};

    /** Fraction of simulated time spent in detail windows. */
    double
    coverage() const
    {
        Tick total = detailTicks + ffTicks;
        return total == 0
                   ? 1.0
                   : static_cast<double>(detailTicks)
                         / static_cast<double>(total);
    }

    /** Fold @p other's counters into this (sweep aggregation). */
    void
    accumulate(const SampleStats &other)
    {
        detailWindows += other.detailWindows;
        ffWindows += other.ffWindows;
        detailTicks += other.detailTicks;
        ffTicks += other.ffTicks;
        detailActions += other.detailActions;
        ffActions += other.ffActions;
        ffCommits += other.ffCommits;
        ffFallbacks += other.ffFallbacks;
        forcedWindows += other.forcedWindows;
        transitions += other.transitions;
        for (int i = 0; i < kGapStretchBuckets; ++i)
            gapStretch[i] += other.gapStretch[i];
    }
};

/**
 * Drives detail <-> fast-forward transitions on the event queue.
 *
 * The schedule is time-based: [0, startupDetail) is detailed, then
 * gaps and detail windows alternate, with gap lengths adapted from
 * the model drift probe and cut short by forceDetail(). Phase-flip
 * events are scheduled before any same-tick lump commit (they are
 * inserted when the previous phase begins), so an action starting at
 * a boundary tick is charged under the new phase's rules.
 */
class SamplingController
{
  public:
    SamplingController(EventQueue &eq, const SamplingConfig &cfg);

    /** Begin the schedule. Call once, before the run's first event. */
    void start();

    /** Phase at the current tick. */
    SamplePhase phase() const { return _phase; }

    /** True while fast-forwarding. */
    bool fastForward() const
    {
        return _phase == SamplePhase::FastForward;
    }

    /**
     * Tick at which the current phase ends (kTickNever when the run
     * stays in detail forever). Lump construction must not cross it.
     */
    Tick phaseEnd() const { return _phaseEnd; }

    const SamplingConfig &config() const { return _cfg; }

    /**
     * Force the cycle-accurate path around the current tick: a
     * fast-forward gap is cut short (flipping to detail immediately),
     * a running detail window is extended so at least a full
     * detailWindow still lies ahead. Either way the adaptive stretch
     * resets to the base gap. No-op when gapWindow == 0 (the run is
     * already all-detail) or before start().
     */
    void forceDetail();

    /**
     * Record an observed DVFS transition and force a detail window
     * around it (the fitted eras of the old operating point cannot
     * charge the new one soundly).
     */
    void
    noteTransition()
    {
        _stats.transitions += 1;
        forceDetail();
    }

    /**
     * Hook invoked at every phase flip, after the phase changed, with
     * the phase just entered. The executor uses it to age the
     * analytical model at each detail -> fast-forward boundary.
     */
    void
    onFlip(std::function<void(SamplePhase)> hook)
    {
        _onFlip = std::move(hook);
    }

    /**
     * Probe consulted at each detail -> gap flip (after the onFlip
     * hook aged the model) for the fitted-term drift in permille.
     * Unset or absent data (see FastPathModel::kDriftUnknown) counts
     * as drifting, so gaps only stretch on demonstrated steadiness.
     */
    void
    driftProbe(std::function<std::uint32_t()> probe)
    {
        _driftProbe = std::move(probe);
    }

    /** Mutable counters, bumped by the executor. */
    SampleStats &stats() { return _stats; }

    /**
     * Stats with the in-progress phase folded in up to the current
     * tick (for end-of-run reporting).
     */
    SampleStats finalStats() const;

  private:
    /** Schedule the boundary event at _phaseEnd under _flipGen. */
    void armFlip();

    /** Boundary event: close the current phase, open the next. */
    void flip();

    /** Enter a gap at the current tick: adapt its length, schedule. */
    void enterGap(Tick now);

    /** Enter a detail window of @p len at the current tick. */
    void enterDetail(Tick now, Tick len);

    EventQueue &_eq;
    SamplingConfig _cfg;
    SamplePhase _phase = SamplePhase::Detail;
    Tick _phaseStart = 0;
    Tick _phaseEnd = kTickNever;
    /** Bumped by forceDetail(); older boundary events are no-ops. */
    std::uint64_t _flipGen = 0;
    std::uint64_t _stretch = 1;
    bool _started = false;
    SampleStats _stats;
    std::function<void(SamplePhase)> _onFlip;
    std::function<std::uint32_t()> _driftProbe;
};

} // namespace dvfs::sim

#endif // DVFS_SIM_SAMPLING_HH
