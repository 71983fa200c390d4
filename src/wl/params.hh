/**
 * @file
 * Workload parameterisation.
 *
 * Each synthetic benchmark is a WorkloadParams instance: a main thread
 * plus appThreads workers, each executing workItems loop iterations.
 * One iteration mixes straight-line compute, long-latency miss
 * clusters over hot/warm/cold address regions, managed allocation
 * (zero-initialised, GC-pressure-generating), critical sections, and
 * optional barrier phases — the ingredient list Section II-B of the
 * paper identifies for managed multithreaded behaviour. The address
 * layout (region bases and sizes) is shared by every benchmark, so it
 * is a set of constants, not fields: a benchmark picks how often it
 * touches each region (pHot, pWarm), not how large the region is.
 *
 * All durations in Table I are reproduced at 1/100 time scale (see
 * DESIGN.md); kTimeScale converts between simulated and reported time.
 */

#ifndef DVFS_WL_PARAMS_HH
#define DVFS_WL_PARAMS_HH

#include <cstdint>
#include <string>

#include "rt/runtime.hh"
#include "sim/time.hh"

namespace dvfs::wl {

/** Factor by which all Table I durations are scaled down. */
constexpr double kTimeScale = 1.0 / 100.0;

/** Convert a simulated duration to the paper-scale (de-scaled) value. */
inline double
descaleMs(Tick t)
{
    return ticksToMs(t) / kTimeScale;
}

/// @name Simulated address-space layout
/// @{

/** Per-thread hot region (L1/L2-resident working set). */
constexpr std::uint64_t kHotBase = 0x3'0000'0000ULL;
/** Stride between consecutive threads' hot regions. */
constexpr std::uint64_t kHotStride = 8ULL << 20;
/** Bytes of a thread's hot region that chains touch. */
constexpr std::uint64_t kHotBytes = 96ULL << 10;
/** Shared warm region (mostly L3-resident). */
constexpr std::uint64_t kWarmBase = 0x4'0000'0000ULL;
/** Bytes of the warm region that chains touch. */
constexpr std::uint64_t kWarmBytes = 2560ULL << 10;
/** Shared cold region (DRAM-resident). */
constexpr std::uint64_t kColdBase = 0x5'0000'0000ULL;
/** Bytes of the cold region that chains touch. */
constexpr std::uint64_t kColdBytes = 256ULL << 20;
/// @}

/**
 * Full description of one benchmark.
 */
struct WorkloadParams {
    std::string name;

    /** Table I classification: memory-intensive (M) vs compute (C). */
    bool memoryIntensive = true;

    /** Heap size reported in Table I (MB, unscaled, for reports). */
    std::uint32_t heapMB = 98;

    /** Worker threads (Table I: 4; avrora: 6). */
    std::uint32_t appThreads = 4;

    /** Loop iterations per worker. */
    std::uint64_t workItems = 1000;

    /** Per-item work multiplier for worker 0 (pmd's large input). */
    double stragglerFactor = 1.0;

    /// @name Per-item compute
    /// @{
    std::uint64_t computeInstr = 4000;    ///< instructions per item
    std::uint32_t l2LoadsPerItem = 4;     ///< analytic L2-hit loads
    std::uint32_t l3LoadsPerItem = 1;     ///< analytic L3-hit loads
    /// @}

    /// @name Per-item memory behaviour
    /// @{
    std::uint32_t clustersPerItem = 2;    ///< miss clusters per item
    std::uint32_t chainDepth = 3;         ///< dependent loads per chain
    std::uint32_t chains = 2;             ///< parallel chains (MLP)
    std::uint32_t clusterOverlapInstr = 800;
    double pHot = 0.3;                    ///< chain targets hot region
    double pWarm = 0.2;                   ///< chain targets warm region
    /// @}

    /// @name Per-item allocation
    /// @{
    std::uint64_t allocBytesPerItem = 2048;
    std::uint32_t allocChunkBytes = 2048; ///< bytes per Alloc action
    /// @}

    /// @name Synchronization
    /// @{
    double lockProb = 0.2;           ///< item contains a critical section
    std::uint64_t lockHoldInstr = 300;
    std::uint32_t numLocks = 2;
    std::uint32_t barrierEvery = 0;  ///< items between barriers (0 = off)
    /// @}

    /// @name Main thread
    /// @{
    std::uint64_t serialSetupInstr = 50'000;
    std::uint64_t serialTeardownInstr = 20'000;
    /// @}

    /** Managed-runtime (heap / GC) configuration. */
    rt::RuntimeConfig runtime{};
};

} // namespace dvfs::wl

#endif // DVFS_WL_PARAMS_HH
