/**
 * @file
 * Deterministic fault injection: the FaultPlan.
 *
 * Robustness work needs realistic disturbances that are *replayable*:
 * a fault schedule must be a pure function of its seed and of the
 * (deterministic) simulation that consumes it, so a failure observed
 * once can be reproduced bit-identically from the seed alone.
 *
 * A schedule is named by a seed and a set of enabled classes
 * (FaultConfig). Each class fires at one fixed intensity, the
 * FaultPlan constants, which are the stress levels fig8 checks the
 * manager's guarantee under. The plan exposes one query per hook
 * point (DRAM access, DVFS transition, action boundary, collection
 * start, ...). Each fault class draws from its own split RNG stream,
 * so enabling or disabling one class never perturbs the schedule of
 * another. Every fault that actually fires is appended to an
 * in-memory trace; the trace's fingerprint is the replay witness the
 * tests and fig8 compare.
 *
 * Layering: this header depends only on sim/, so the uarch and os
 * layers can hold a FaultPlan pointer without include cycles.
 */

#ifndef DVFS_FAULT_FAULT_PLAN_HH
#define DVFS_FAULT_FAULT_PLAN_HH

#include <array>
#include <bitset>
#include <cstdint>
#include <vector>

#include "sim/rng.hh"
#include "sim/time.hh"

namespace dvfs::fault {

/** The injectable disturbance classes. */
enum class FaultClass : std::uint8_t {
    DramLatencySpike, ///< extra latency on a DRAM read (ECC retry, refresh)
    DramBankStall,    ///< a bank blacked out for a while (maintenance)
    DvfsDelay,        ///< a DVFS transition takes longer than specified
    DvfsReject,       ///< a DVFS transition is dropped by the PCU
    SpuriousWake,     ///< a parked thread wakes without a signal
    PreemptJitter,    ///< a running thread is preempted off-schedule
    GcInflation,      ///< a collection traces more than the live set
};

/** Number of fault classes (array sizing). */
constexpr std::size_t kNumFaultClasses = 7;

/** Printable name of a fault class. */
const char *faultClassName(FaultClass c);

/**
 * A fault schedule: a seed and the set of enabled classes. Each
 * class fires at the fixed intensity FaultPlan names (the fig8 stress
 * levels). A default-constructed config injects nothing.
 */
struct FaultConfig {
    /** Seed of the whole schedule. Same seed -> same schedule. */
    std::uint64_t seed = 0x5eed;

    /** Enabled classes, indexed by FaultClass. */
    std::bitset<kNumFaultClasses> classes;

    /** A config with every class disabled (explicit spelling). */
    static FaultConfig none() { return FaultConfig{}; }

    /** A config with exactly class @p c enabled. */
    static FaultConfig only(FaultClass c, std::uint64_t seed = 0x5eed);

    /** True if class @p c can fire. */
    bool enabled(FaultClass c) const
    {
        return classes.test(static_cast<std::size_t>(c));
    }
};

/** One injected fault, as recorded in the replay trace. */
struct FaultEvent {
    Tick tick = 0;
    FaultClass cls = FaultClass::DramLatencySpike;
    /** Class-specific magnitude (ticks of delay, clusters, or 1). */
    std::uint64_t magnitude = 0;

    bool operator==(const FaultEvent &) const = default;
};

/**
 * A seeded, deterministic fault schedule.
 *
 * Hook points call the query methods; a query returns the fault to
 * apply (or zero/false) and records fired faults in the trace. The
 * plan is passive — it never touches the machine itself.
 */
class FaultPlan
{
  public:
    /// @name Fault intensities
    /// How often an enabled class fires.
    /// @{
    static constexpr double kDramSpikeProb = 0.02;     ///< per DRAM read
    static constexpr double kDramBankStallProb = 0.01; ///< per DRAM access
    static constexpr double kDvfsDelayProb = 0.5;  ///< per transition
    static constexpr double kDvfsRejectProb = 0.6; ///< per transition
    /** Mean ticks between injected spurious wakeups. */
    static constexpr Tick kSpuriousWakeMeanInterval = 10 * kTicksPerUs;
    static constexpr double kPreemptProb = 0.05; ///< per action boundary
    /** Min spacing between forced preemptions of the same machine. */
    static constexpr Tick kPreemptMinSpacing = 5 * kTicksPerUs;
    static constexpr double kGcInflateProb = 1.0; ///< per collection
    /// @}

    /// @name Fault magnitudes
    /// @{
    /** Mean of a DRAM spike's exponential extra read latency. */
    static constexpr double kDramSpikeNsMean = 300.0;
    /** Mean of a bank stall's exponential extra occupancy. */
    static constexpr double kDramBankStallNsMean = 500.0;
    /** Mean of a delayed transition's extra chip-wide stall. */
    static constexpr double kDvfsDelayNsMean = 100.0;
    /** Extra trace clusters per copy unit of an inflated collection. */
    static constexpr std::uint32_t kGcInflateExtraClusters = 4;
    /// @}

    explicit FaultPlan(const FaultConfig &cfg = FaultConfig());

    /// @name Hook-point queries
    /// @{

    /** Extra latency for a DRAM read issued at @p now (0 = none). */
    Tick dramReadSpike(Tick now);

    /** Extra bank-occupancy ticks for an access at @p now (0 = none). */
    Tick dramBankStall(Tick now);

    /** True if the transition attempted at @p now is dropped. */
    bool dvfsReject(Tick now);

    /** Extra transition stall for the transition at @p now (0 = none). */
    Tick dvfsExtraDelay(Tick now);

    /** True if the action boundary at @p now forces a preemption. */
    bool preemptNow(Tick now);

    /** Extra trace clusters per unit for the collection at @p now. */
    std::uint32_t gcExtraClusters(Tick now);

    /**
     * Delay until the next injected spurious wake (exponential around
     * kSpuriousWakeMeanInterval), or 0 if the class is disabled.
     */
    Tick nextSpuriousWakeDelay();

    /**
     * Deterministic choice among @p bound candidates (victim
     * selection for spurious wakes). Draws from the SpuriousWake
     * stream. @p bound must be nonzero.
     */
    std::uint64_t pickVictim(std::uint64_t bound);

    /** Record a spurious wake that was actually delivered. */
    void recordSpuriousWake(Tick now);
    /// @}

    /// @name Replay trace
    /// @{

    /** Every fault that fired, in firing order. */
    const std::vector<FaultEvent> &trace() const { return _trace; }

    /** Number of fired faults of class @p c. */
    std::uint64_t injected(FaultClass c) const
    {
        return _counts[static_cast<std::size_t>(c)];
    }

    /** Total fired faults across all classes. */
    std::uint64_t totalInjected() const;

    /**
     * FNV-1a fingerprint over (tick, class, magnitude) of the whole
     * trace: two runs with the same seed and workload must agree.
     */
    std::uint64_t fingerprint() const;
    /// @}

  private:
    sim::Rng &rng(FaultClass c)
    {
        return _rngs[static_cast<std::size_t>(c)];
    }

    void record(Tick now, FaultClass c, std::uint64_t magnitude);

    FaultConfig _cfg;
    std::array<sim::Rng, kNumFaultClasses> _rngs;
    std::array<std::uint64_t, kNumFaultClasses> _counts{};
    std::vector<FaultEvent> _trace;
    Tick _nextPreemptAllowed = 0;
};

} // namespace dvfs::fault

#endif // DVFS_FAULT_FAULT_PLAN_HH
