/**
 * @file
 * Online-fitted analytical timing model for fast-forwarded execution.
 *
 * During detail windows the model *observes* every miss cluster and
 * store burst the cycle-accurate core executes: elapsed time plus the
 * per-action counter deltas, keyed by the action's logical shape and
 * by the number of busy cores at issue (the thread-count-aware term —
 * more active cores means more shared-cache and DRAM contention, and
 * the paper's synchronization epochs change the active count all the
 * time). During fast-forward gaps the model *charges* actions of the
 * same shape from the fitted means.
 *
 * Fitting is *era-based*: observations accumulate in a window; age()
 * — called at each flip into fast-forward — promotes a window that
 * met the observation threshold to the frozen era that charging draws
 * from, and starts a new window. Each gap is therefore charged at the
 * rates of the freshest detail window, so transient program phases
 * (cold caches at startup, GC pressure, lock convoys) do not bleed
 * into the whole run's means. A window too thin to qualify keeps
 * accumulating across detail windows until it does, so rare shapes
 * warm up instead of flapping.
 *
 * All fitted state is additionally keyed by the *operating point* (the
 * core frequency the observations were taken at): tick means fitted at
 * one frequency are wrong at another, so an energy-manager DVFS
 * transition switches the model to the new point's era set via
 * setOperatingPoint(). A point visited for the first time is
 * warm-started by *forking* the previous point's charging eras with
 * the scaling/non-scaling split the paper's model rests on: the
 * computeTime share rescales by f_old/f_new (integer math), the memory
 * and synchronization shares carry over unchanged, and the forked eras
 * serve charges until the forced detail window around the transition
 * refits the point from real execution. Fixed-frequency runs only ever
 * touch one point, so their behaviour (and golden fingerprints) are
 * untouched by the keying.
 *
 * Charging is integer-only and drift-free: for every fitted quantity
 * the model emits cumulative shares
 *
 *     emit_k = floor(chargedWeight_k * eraSum / eraWeight)
 *              - emittedSoFar
 *
 * so after charging N actions the synthesized totals equal the era
 * mean scaled by N to within one unit — no floating-point
 * accumulation, no rounding drift, bit-identical at any worker count.
 *
 * The decomposition mirrors the paper's epoch model: per shape the
 * observed elapsed time is split into its scaling (computeTime) and
 * non-scaling (trueMemTime, CRIT / Leading-Loads / stall estimates,
 * SQ-full time) components, so the fast-forwarded counters feed the
 * predictors exactly like detailed ones.
 */

#ifndef DVFS_UARCH_FASTPATH_HH
#define DVFS_UARCH_FASTPATH_HH

#include <cstdint>
#include <vector>

#include "sim/time.hh"
#include "uarch/perf_counters.hh"
#include "uarch/work.hh"

namespace dvfs::uarch {

/**
 * The model. One instance per System; all state is per-run.
 */
class FastPathModel
{
  public:
    /** Cluster observations a lane needs before it may charge. */
    static constexpr std::uint32_t kMinClusterObs = 8;
    /** Store-burst *lines* a lane needs before it may charge. */
    static constexpr std::uint32_t kMinBurstLines = 64;

    explicit FastPathModel(std::uint32_t cores);

    /// @name Operating points (DVFS-aware charging)
    /// @{

    /**
     * Switch the model to the era set of the operating point @p mhz
     * (the chip's new core frequency). A revisited point resumes its
     * own fitted eras; a new point is warm-started by forking the
     * previous point's eras with the compute share rescaled by
     * f_old/f_new. Call at every DVFS transition (and once before the
     * run to label the initial point).
     */
    void setOperatingPoint(std::uint32_t mhz);

    /** Operating point currently charged/observed, in MHz. */
    std::uint32_t operatingPoint() const { return _points[_cur].mhz; }

    /** Number of operating points the model has era sets for. */
    std::size_t operatingPoints() const { return _points.size(); }
    /// @}

    /// @name Observation (detail windows)
    /// @{
    void observeCluster(const MissClusterSpec &spec,
                        std::uint32_t busyCores, Tick elapsed,
                        const PerfCounters &delta);
    void observeBurst(const StoreBurstSpec &spec, std::uint32_t busyCores,
                      Tick elapsed, const PerfCounters &delta);

    /**
     * Promote qualifying observation windows to the charging era and
     * open fresh windows. Call at each detail -> fast-forward flip.
     */
    void age();
    /// @}

    /// @name Charging (fast-forward gaps)
    /// @{

    /**
     * Charge one miss cluster analytically. On success, @p elapsed is
     * the synthesized duration and @p pc accumulates the synthesized
     * counters (all fields the detailed path would touch).
     *
     * @return false if the model is too cold for this shape (the
     *         caller falls back to detailed execution).
     */
    bool chargeCluster(const MissClusterSpec &spec,
                       std::uint32_t busyCores, Tick &elapsed,
                       PerfCounters &pc);

    /** Charge one store burst analytically; see chargeCluster. */
    bool chargeBurst(const StoreBurstSpec &spec, std::uint32_t busyCores,
                     Tick &elapsed, PerfCounters &pc);
    /// @}

    /// @name Drift (adaptive window placement)
    /// @{

    /** lastDriftPermille() when age() had nothing comparable. */
    static constexpr std::uint32_t kDriftUnknown = ~0u;

    /**
     * Relative movement of the fitted terms at the most recent age():
     * the worst per-shape change of the aggregate-lane elapsed mean
     * between the era just promoted and the era it replaced, in
     * permille. kDriftUnknown when no shape promoted over a previous
     * era (cold model, thin window) — callers must treat that as "not
     * demonstrably steady". Pure integer arithmetic over observed
     * sums, so it is deterministic and worker-count-independent.
     */
    std::uint32_t lastDriftPermille() const { return _lastDrift; }
    /// @}

  private:
    /** Fitted per-cluster quantities (sums over observations). */
    enum ClusterField {
        CfElapsed,
        CfCompute,
        CfTrueMem,
        CfCrit,
        CfLeading,
        CfStall,
        CfL1,
        CfL2,
        CfL3,
        CfDram,
        CfCount_,
    };

    /** Fitted per-burst-line quantities. */
    enum BurstField {
        BfElapsed,
        BfCompute,
        BfTrueMem,
        BfSqFull,
        BfCount_,
    };

    /**
     * One (shape, occupancy) accumulator: the accumulating fitting
     * window, the frozen charging era, and the era's drift-free
     * emission bookkeeping.
     */
    template <int N>
    struct Lane {
        std::uint64_t winWeight = 0;     ///< window observations (lines)
        std::uint64_t winObs[N] = {};    ///< window sums
        std::uint64_t eraWeight = 0;     ///< promoted-era weight
        std::uint64_t eraObs[N] = {};    ///< promoted-era sums
        std::uint64_t charged = 0;       ///< weight charged this era
        std::uint64_t emitted[N] = {};   ///< sums emitted this era

        /** Promote the window if it met @p minWeight. */
        void
        promote(std::uint64_t minWeight)
        {
            if (winWeight < minWeight)
                return;
            eraWeight = winWeight;
            for (int i = 0; i < N; ++i) {
                eraObs[i] = winObs[i];
                winObs[i] = 0;
                emitted[i] = 0;
            }
            winWeight = 0;
            charged = 0;
        }

        /**
         * Warm-start this lane from @p src fitted at @p oldMhz: the
         * era's compute share rescales to @p newMhz, the non-scaling
         * shares carry over, the in-progress window and the emission
         * bookkeeping start empty.
         */
        void
        fork(const Lane &src, int computeField, int elapsedField,
             std::uint32_t oldMhz, std::uint32_t newMhz)
        {
            if (src.eraWeight == 0)
                return;
            eraWeight = src.eraWeight;
            for (int i = 0; i < N; ++i)
                eraObs[i] = src.eraObs[i];
            const std::uint64_t oldCompute = src.eraObs[computeField];
            const auto newCompute = static_cast<std::uint64_t>(
                static_cast<unsigned __int128>(oldCompute) * oldMhz
                / newMhz);
            const std::uint64_t elapsed = src.eraObs[elapsedField];
            const std::uint64_t nonScaling =
                elapsed > oldCompute ? elapsed - oldCompute : 0;
            eraObs[computeField] = newCompute;
            eraObs[elapsedField] = nonScaling + newCompute;
        }
    };

    struct ClusterShape {
        std::uint32_t loads = 0;
        std::uint64_t overlapInstructions = 0;
        std::uint32_t shapeHint = 0;
        /** Index 1..cores by busy-core count; [0] is the aggregate. */
        std::vector<Lane<CfCount_>> lanes;
    };

    struct BurstShape {
        std::uint32_t storesPerLine = 0;
        std::vector<Lane<BfCount_>> lanes;
    };

    /**
     * One operating point's complete era set. The model observes and
     * charges only through the current point; other points keep their
     * fitted state for when the manager revisits their frequency.
     */
    struct PointState {
        std::uint32_t mhz = 0;  ///< 0 until the first setOperatingPoint
        std::vector<ClusterShape> clusters;
        std::vector<BurstShape> bursts;
        std::uint64_t observations = 0;  ///< total obs landed here
    };

    /** Cumulative-emission share of one fitted quantity. */
    template <int N>
    static std::uint64_t
    emitShare(Lane<N> &lane, int field, std::uint64_t chargedWeight)
    {
        const unsigned __int128 product =
            static_cast<unsigned __int128>(chargedWeight) *
            lane.eraObs[field];
        // The product nearly always fits 64 bits, where a native
        // divide gives the same quotient as the 128-bit library call.
        const std::uint64_t entitled =
            (product >> 64) == 0
                ? static_cast<std::uint64_t>(product) / lane.eraWeight
                : static_cast<std::uint64_t>(product / lane.eraWeight);
        std::uint64_t out = entitled > lane.emitted[field]
                                ? entitled - lane.emitted[field]
                                : 0;
        lane.emitted[field] += out;
        return out;
    }

    ClusterShape &clusterShape(std::uint32_t loads,
                               std::uint64_t overlap,
                               std::uint32_t hint);
    BurstShape &burstShape(std::uint32_t storesPerLine);

    /** Fork every era of @p src into a new point at @p newMhz. */
    PointState forkPoint(const PointState &src, std::uint32_t newMhz);

    std::uint32_t _cores;
    std::vector<PointState> _points;
    std::size_t _cur = 0;
    std::uint32_t _lastDrift = kDriftUnknown;
};

} // namespace dvfs::uarch

#endif // DVFS_UARCH_FASTPATH_HH
