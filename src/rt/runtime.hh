/**
 * @file
 * The managed-runtime facade: allocation, safepoints, and the
 * stop-the-world parallel copying collector.
 *
 * The runtime plugs into the OS at two points. As the
 * ActionInterceptor it owns allocation (bump + zero-initialisation
 * store bursts) and parks application threads at safepoints while a
 * collection is pending. As a SyncListener it watches futex activity
 * to detect the stop-the-world quiescence point at which the GC
 * worker threads can be released — exactly the signal flow a JVM
 * implements with its safepoint protocol, expressed through the same
 * futex primitives the application uses (so DEP sees all of it, as
 * the paper requires).
 *
 * The paper evaluates one JVM, so the collector's shape is fixed:
 * the worker count and zeroing chunk are Runtime constants, the work
 * unit and trace clusters GcWorkerProgram constants. A workload sets
 * only its nursery size and survival rate (RuntimeConfig).
 */

#ifndef DVFS_RT_RUNTIME_HH
#define DVFS_RT_RUNTIME_HH

#include <array>
#include <cstdint>
#include <vector>

#include "os/system.hh"
#include "rt/heap.hh"

namespace dvfs::fault {
class FaultPlan;
}

namespace dvfs::rt {

/**
 * Runtime/GC configuration: the two values the workloads vary. The
 * collector's shape (worker count, work-unit size, trace clusters)
 * is a constant of Runtime and GcWorkerProgram.
 */
struct RuntimeConfig {
    /** Nursery size (bytes). */
    std::uint64_t nurseryBytes = 2ULL << 20;

    /** Fraction of the nursery that survives a collection. */
    double survivalRate = 0.25;
};

/**
 * The managed runtime.
 */
class Runtime : public os::ActionInterceptor, public os::SyncListener
{
  public:
    /** Number of parallel GC worker threads. */
    static constexpr std::uint32_t kGcThreads = 4;

    /** Max lines zero-initialised in one burst action (zeroing chunk). */
    static constexpr std::uint32_t kMaxZeroLinesPerBurst = 64;

    /**
     * Create the runtime for @p sys. Call attach() once the
     * application threads have been added; it registers the hooks and
     * spawns the GC worker threads.
     */
    Runtime(os::System &sys, const RuntimeConfig &cfg);

    /** Register hooks and spawn GC workers. Call exactly once. */
    void attach();

    /// @name ActionInterceptor
    /// @{
    std::optional<os::Action> interceptNext(os::Thread &t) override;
    std::optional<os::Action> onAlloc(os::Thread &t,
                                      std::uint64_t bytes) override;
    /// @}

    /// @name SyncListener
    /// @{
    void onSyncEvent(const os::SyncEvent &ev, const os::System &sys)
        override;
    /// @}

    /// @name Introspection
    /// @{
    Heap &heap() { return _heap; }
    std::uint32_t collections() const { return _collections; }
    /** Total stop-the-world time. */
    Tick gcTime() const { return _gcTime; }

    /**
     * Install a fault plan (nullable): collections may be inflated
     * with extra trace work (fragmented heap, reference storms).
     */
    void setFaultPlan(fault::FaultPlan *plan) { _faultPlan = plan; }

    /**
     * Extra trace clusters per work unit for the collection in
     * progress (0 unless a GC-inflation fault fired at its start).
     */
    std::uint32_t gcInflateExtraClusters() const { return _inflateExtra; }
    /// @}

    /// @name Interface for GC worker programs
    /// @{

    /** Remaining bytes in worker @p idx's collection package. */
    std::uint64_t &workerRemaining(std::uint32_t idx)
    {
        return _workerRemaining[idx];
    }

    /** Called by worker 0 after the termination barrier. */
    void finishCollection();

    os::SyncId gcWorkFutex() const { return _gcWorkFutex; }
    os::SyncId gcWorkLock() const { return _gcWorkLock; }
    os::SyncId gcBarrier() const { return _gcBarrier; }

    /** Address range holding live nursery data (for trace loads). */
    std::uint64_t nurseryScanBase() const { return _heap.nurseryBase(); }
    std::uint64_t nurseryScanBytes() const { return _scanBytes; }

    /** Mature-space address for the next copied unit. */
    std::uint64_t copyTarget(std::uint64_t bytes)
    {
        return _heap.matureAlloc(bytes);
    }
    /// @}

  private:
    enum class GcPhase { Idle, Requested, Active };

    /** Per-application-thread runtime state. */
    struct MutatorState {
        std::uint64_t pendingAllocBytes = 0; ///< retry after the GC
        std::uint64_t zeroLinesLeft = 0;     ///< zero-init continuation
        std::uint64_t zeroCursor = 0;        ///< next line address
    };

    MutatorState &mutatorState(os::ThreadId tid);

    /** Start the zero-initialisation of a fresh allocation. */
    os::Action beginZeroing(os::ThreadId tid, std::uint64_t addr,
                            std::uint64_t bytes);

    /** Next chunk of a split zeroing burst. */
    os::Action nextZeroChunk(MutatorState &ms);

    /** Ask for a collection (idempotent). */
    void requestGc();

    /** Begin the collection if the world has stopped. */
    void maybeBeginCollection();

    os::System &_sys;
    double _survivalRate;
    Heap _heap;

    GcPhase _phase = GcPhase::Idle;
    Tick _gcBeginTick = 0;
    Tick _gcTime = 0;
    std::uint32_t _collections = 0;
    std::uint64_t _scanBytes = 0;
    fault::FaultPlan *_faultPlan = nullptr;
    std::uint32_t _inflateExtra = 0;

    os::SyncId _gcStartFutex = os::kNoSync; ///< mutators park here
    os::SyncId _gcWorkFutex = os::kNoSync;  ///< workers park here
    os::SyncId _gcWorkLock = os::kNoSync;   ///< GC work-queue lock
    os::SyncId _gcBarrier = os::kNoSync;    ///< GC termination barrier

    std::vector<os::ThreadId> _workers;
    std::array<std::uint64_t, kGcThreads> _workerRemaining{};
    std::vector<MutatorState> _mutators;

    bool _attached = false;
};

} // namespace dvfs::rt

#endif // DVFS_RT_RUNTIME_HH
