/**
 * @file
 * Online-fitted analytical timing model for fast-forwarded execution.
 *
 * During detail windows the model *observes* every miss cluster and
 * store burst the cycle-accurate core executes: elapsed time plus the
 * per-action counter deltas. During fast-forward gaps it *charges*
 * actions of the same shape from the fitted means.
 *
 * Both action kinds fit, charge, age and fork through one lane family;
 * a kind is data: its shape key (loads, overlap instructions and shape
 * hint for a cluster; stores per line for a burst), the PerfCounters
 * fields its lanes fit, its lane weight (one per cluster, one per
 * burst line), the weight an era needs before it may charge, and the
 * counts a charge adds from the action's spec. Every
 * shape has an aggregate lane and one lane per busy-core count at
 * issue (the thread-count-aware term: more active cores means more
 * shared-cache and DRAM contention, and the paper's synchronization
 * epochs change the active count all the time). A charge draws from
 * the occupancy-matched lane, else the aggregate, else it is refused
 * and the caller executes the action in detail.
 *
 * Fitting is *era-based*: observations accumulate in a window; age()
 * — called at each flip into fast-forward — promotes a window that
 * met the weight threshold to the frozen era that charging draws
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
 * the scaling/non-scaling split the paper's model rests on: every
 * kind's slot 0 is elapsed time and slot 1 its computeTime share,
 * which rescales by f_old/f_new (integer math), while the rest of the
 * elapsed time carries over unchanged. The forked eras serve charges
 * until the forced detail window around the transition refits the
 * point from real execution. Fixed-frequency runs only ever touch one
 * point, so their behaviour (and golden fingerprints) are untouched
 * by the keying.
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

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <tuple>
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
    /** A PerfCounters field a lane fits. */
    using Field = std::uint64_t PerfCounters::*;

    /**
     * Miss clusters: a lane weighs one per cluster and fits the
     * counters listed. Slot 0 of every kind is the action's elapsed
     * time, observed from the caller's measure and charged as
     * busyTime; slot 1 is computeTime, the share a fork rescales.
     */
    struct ClusterKind {
        using Spec = MissClusterSpec;
        struct Key {
            std::uint64_t overlapInstructions;
            std::uint32_t loads;
            std::uint32_t shapeHint;
            bool operator==(const Key &) const = default;
        };
        static Key
        key(const Spec &s)
        {
            return {s.overlapInstructions, s.loadCount(), s.shapeHint};
        }
        static std::uint64_t weight(const Spec &) { return 1; }
        /** What a charge adds besides the fitted counters. */
        static void
        addCounts(const Spec &s, PerfCounters &pc)
        {
            pc.instructions += s.overlapInstructions;
            pc.missClusters += 1;
        }
        static constexpr std::uint64_t kMinWeight = kMinClusterObs;
        static constexpr Field kFields[] = {
            &PerfCounters::busyTime,       &PerfCounters::computeTime,
            &PerfCounters::trueMemTime,    &PerfCounters::critNonscaling,
            &PerfCounters::leadingNonscaling,
            &PerfCounters::stallNonscaling, &PerfCounters::l1Hits,
            &PerfCounters::l2Hits,         &PerfCounters::l3Hits,
            &PerfCounters::dramLoads,
        };
    };

    /** Store bursts: a lane weighs one per line. */
    struct BurstKind {
        using Spec = StoreBurstSpec;
        struct Key {
            std::uint32_t storesPerLine;
            bool operator==(const Key &) const = default;
        };
        static Key key(const Spec &s) { return {s.storesPerLine}; }
        static std::uint64_t weight(const Spec &s) { return s.lines; }
        static void
        addCounts(const Spec &s, PerfCounters &pc)
        {
            pc.instructions += static_cast<std::uint64_t>(s.lines) *
                               std::max<std::uint32_t>(1, s.storesPerLine);
            pc.storeBursts += 1;
            pc.storeLines += s.lines;
        }
        static constexpr std::uint64_t kMinWeight = kMinBurstLines;
        static constexpr Field kFields[] = {
            &PerfCounters::busyTime,
            &PerfCounters::computeTime,
            &PerfCounters::trueMemTime,
            &PerfCounters::sqFullTime,
        };
    };

    /**
     * One (shape, occupancy) accumulator of N fitted sums: the
     * accumulating fitting window, the frozen charging era, and the
     * era's drift-free emission bookkeeping.
     */
    template <std::size_t N>
    struct Lane {
        std::uint64_t winWeight = 0;     ///< window weight
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
            for (std::size_t i = 0; i < N; ++i) {
                eraObs[i] = winObs[i];
                winObs[i] = 0;
                emitted[i] = 0;
            }
            winWeight = 0;
            charged = 0;
        }

        /**
         * Movement of the window's slot-0 (elapsed) mean from the
         * era's, in permille; kDriftUnknown when the era's mean is 0.
         * Both weights must be nonzero.
         */
        std::uint32_t
        driftPermille() const
        {
            const unsigned __int128 oldMean =
                (static_cast<unsigned __int128>(eraObs[0]) << 20) /
                eraWeight;
            const unsigned __int128 newMean =
                (static_cast<unsigned __int128>(winObs[0]) << 20) /
                winWeight;
            if (oldMean == 0)
                return kDriftUnknown;
            const unsigned __int128 diff =
                oldMean > newMean ? oldMean - newMean : newMean - oldMean;
            const unsigned __int128 permille = diff * 1000 / oldMean;
            return permille > kDriftUnknown - 1
                       ? kDriftUnknown - 1
                       : static_cast<std::uint32_t>(permille);
        }

        /** Cumulative-emission share of slot @p i at @p chargedWeight. */
        std::uint64_t
        emit(std::size_t i, std::uint64_t chargedWeight)
        {
            const unsigned __int128 product =
                static_cast<unsigned __int128>(chargedWeight) * eraObs[i];
            // The product nearly always fits 64 bits, where a native
            // divide gives the same quotient as the 128-bit library call.
            const std::uint64_t entitled =
                (product >> 64) == 0
                    ? static_cast<std::uint64_t>(product) / eraWeight
                    : static_cast<std::uint64_t>(product / eraWeight);
            const std::uint64_t out =
                entitled > emitted[i] ? entitled - emitted[i] : 0;
            emitted[i] += out;
            return out;
        }

        /**
         * Warm-start this lane, fitted at @p oldMhz, for @p newMhz:
         * the era's compute share (slot 1) rescales, the non-scaling
         * rest of slot 0 carries over, and the window and the emission
         * bookkeeping start empty. A lane with no era stays empty.
         */
        void
        fork(std::uint32_t oldMhz, std::uint32_t newMhz)
        {
            Lane forked;
            forked.eraWeight = eraWeight;
            std::copy(eraObs, eraObs + N, forked.eraObs);
            const std::uint64_t compute = eraObs[1];
            const std::uint64_t nonScaling =
                eraObs[0] > compute ? eraObs[0] - compute : 0;
            forked.eraObs[1] = static_cast<std::uint64_t>(
                static_cast<unsigned __int128>(compute) * oldMhz / newMhz);
            forked.eraObs[0] = nonScaling + forked.eraObs[1];
            *this = forked;
        }
    };

    /** One shape of @p Kind and its lanes. */
    template <class Kind>
    struct Shape {
        static constexpr std::uint64_t kMinWeight = Kind::kMinWeight;
        typename Kind::Key key;
        /** Index 1..cores by busy-core count; [0] is the aggregate. */
        std::vector<Lane<std::size(Kind::kFields)>> lanes;
    };

    template <class Kind>
    using Shapes = std::vector<Shape<Kind>>;

    /**
     * One operating point's complete era set. The model observes and
     * charges only through the current point; other points keep their
     * fitted state for when the manager revisits their frequency.
     */
    struct PointState {
        std::uint32_t mhz = 0;  ///< 0 until the first setOperatingPoint
        /** Each kind's shapes, in first-observed order. */
        std::tuple<Shapes<ClusterKind>, Shapes<BurstKind>> shapes;
        std::uint64_t observations = 0;  ///< total weight landed here
    };

    /** Call @p f on each kind's shapes of @p pt. */
    template <class F>
    static void
    forEachKind(PointState &pt, F f)
    {
        std::apply([&f](auto &...shapes) { (f(shapes), ...); }, pt.shapes);
    }

    /** The current point's shape of @p Kind keyed @p key, or null. */
    template <class Kind>
    Shape<Kind> *findShape(const typename Kind::Key &key);

    /**
     * Fold one action into its shape's window lanes. An action of zero
     * weight is no observation.
     */
    template <class Kind>
    void observe(const typename Kind::Spec &spec, std::uint32_t busyCores,
                 Tick elapsed, const PerfCounters &delta);

    /**
     * Charge one action from its shape's era: the occupancy-matched
     * lane, else the aggregate, else refuse. An action of zero weight
     * charges nothing and succeeds.
     */
    template <class Kind>
    bool charge(const typename Kind::Spec &spec, std::uint32_t busyCores,
                Tick &elapsed, PerfCounters &pc);

    std::uint32_t _cores;
    std::vector<PointState> _points;
    std::size_t _cur = 0;
    std::uint32_t _lastDrift = kDriftUnknown;
};

} // namespace dvfs::uarch

#endif // DVFS_UARCH_FASTPATH_HH
