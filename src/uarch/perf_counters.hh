/**
 * @file
 * The per-thread hardware performance-counter block.
 *
 * This is the *interface between the machine and the predictors*: a
 * predictor may read nothing about a run except these counters, the
 * futex/sched event trace, and wall-clock epoch boundaries. Fields
 * marked [oracle] exist for analysis/tests only and must not be read
 * by any predictor.
 *
 * The OS virtualizes the per-core counters per thread on context
 * switches (as the paper's kernel-module deployment would), so the
 * simulator simply accumulates into the owning thread's block.
 *
 * The block is kFields packed 64-bit words. words()/fromWords() are
 * its one serial layout, declaration order, which the epoch store,
 * the trace format and the run fingerprints all use.
 */

#ifndef DVFS_UARCH_PERF_COUNTERS_HH
#define DVFS_UARCH_PERF_COUNTERS_HH

#include <array>
#include <bit>
#include <cstdint>
#include <type_traits>

#include "sim/time.hh"

namespace dvfs::uarch {

/** Accumulated hardware counters for one thread. */
struct PerfCounters {
    /** Counter words: one per field. */
    static constexpr unsigned kFields = 15;

    /** The counters as words, in declaration order. */
    using Words = std::array<std::uint64_t, kFields>;

    /** Time scheduled on a core (never includes futex wait time). */
    Tick busyTime = 0;

    /** Retired instructions. */
    std::uint64_t instructions = 0;

    /**
     * Non-scaling time as the CRIT hardware would measure it:
     * accumulated DRAM latency along the critical dependence chain of
     * each miss cluster.
     */
    Tick critNonscaling = 0;

    /**
     * Non-scaling time as the Leading Loads hardware would measure it:
     * the latency of the leading miss of each overlapping burst.
     */
    Tick leadingNonscaling = 0;

    /**
     * Non-scaling time as the stall-time hardware would measure it:
     * time the pipeline could not commit because of load misses.
     */
    Tick stallNonscaling = 0;

    /**
     * Time the store queue was full (the new counter the paper
     * proposes for BURST, Section III-E).
     */
    Tick sqFullTime = 0;

    /** [oracle] True memory-bound (frequency-invariant) load time. */
    Tick trueMemTime = 0;

    /** [oracle] Pure compute time (scales exactly with frequency). */
    Tick computeTime = 0;

    /// @name Cache/memory event counts (available as ordinary HPCs).
    /// @{
    std::uint64_t l1Hits = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t l3Hits = 0;
    std::uint64_t dramLoads = 0;
    std::uint64_t missClusters = 0;
    std::uint64_t storeBursts = 0;
    std::uint64_t storeLines = 0;
    /// @}

    /** Field-wise difference (this - earlier snapshot). */
    PerfCounters
    operator-(const PerfCounters &o) const
    {
        PerfCounters d;
        d.busyTime = busyTime - o.busyTime;
        d.instructions = instructions - o.instructions;
        d.critNonscaling = critNonscaling - o.critNonscaling;
        d.leadingNonscaling = leadingNonscaling - o.leadingNonscaling;
        d.stallNonscaling = stallNonscaling - o.stallNonscaling;
        d.sqFullTime = sqFullTime - o.sqFullTime;
        d.trueMemTime = trueMemTime - o.trueMemTime;
        d.computeTime = computeTime - o.computeTime;
        d.l1Hits = l1Hits - o.l1Hits;
        d.l2Hits = l2Hits - o.l2Hits;
        d.l3Hits = l3Hits - o.l3Hits;
        d.dramLoads = dramLoads - o.dramLoads;
        d.missClusters = missClusters - o.missClusters;
        d.storeBursts = storeBursts - o.storeBursts;
        d.storeLines = storeLines - o.storeLines;
        return d;
    }

    /** Field-wise accumulate. */
    PerfCounters &
    operator+=(const PerfCounters &o)
    {
        busyTime += o.busyTime;
        instructions += o.instructions;
        critNonscaling += o.critNonscaling;
        leadingNonscaling += o.leadingNonscaling;
        stallNonscaling += o.stallNonscaling;
        sqFullTime += o.sqFullTime;
        trueMemTime += o.trueMemTime;
        computeTime += o.computeTime;
        l1Hits += o.l1Hits;
        l2Hits += o.l2Hits;
        l3Hits += o.l3Hits;
        dramLoads += o.dramLoads;
        missClusters += o.missClusters;
        storeBursts += o.storeBursts;
        storeLines += o.storeLines;
        return *this;
    }

    bool operator==(const PerfCounters &) const = default;

    /** The fields as words, in declaration order. */
    constexpr Words words() const;

    /** The counters whose words() are @p w. */
    static constexpr PerfCounters fromWords(const Words &w);
};

static_assert(sizeof(PerfCounters) == sizeof(PerfCounters::Words) &&
                  std::is_trivially_copyable_v<PerfCounters>,
              "PerfCounters must be kFields packed 64-bit words: a new "
              "field needs kFields, the epoch store's mask and the trace "
              "format to grow with it");

constexpr PerfCounters::Words
PerfCounters::words() const
{
    return std::bit_cast<Words>(*this);
}

constexpr PerfCounters
PerfCounters::fromWords(const Words &w)
{
    return std::bit_cast<PerfCounters>(w);
}

} // namespace dvfs::uarch

#endif // DVFS_UARCH_PERF_COUNTERS_HH
