/**
 * @file
 * GC worker thread behaviour.
 *
 * Each worker loops: park on the GC work futex; when released by the
 * runtime's stop-the-world handshake, repeatedly grab a work unit
 * (under the shared work lock), trace it (pointer-chasing load
 * cluster), and evacuate it (store burst into the mature space);
 * synchronize on the termination barrier; worker 0 then finishes the
 * collection and everyone parks again.
 *
 * All of this synchronization flows through the ordinary futex layer,
 * so the predictor's epoch decomposition sees GC-internal activity
 * exactly like application activity — the property Section III-B of
 * the paper highlights.
 */

#ifndef DVFS_RT_GC_WORKER_HH
#define DVFS_RT_GC_WORKER_HH

#include "os/thread.hh"

namespace dvfs::rt {

class Runtime;

/**
 * The per-worker action generator.
 */
class GcWorkerProgram : public os::ThreadProgram
{
  public:
    /** Bytes moved per GC work unit (one grab from the work queue). */
    static constexpr std::uint32_t kCopyUnitBytes = 4096;

    /**
     * Pointer-chase clusters issued while tracing one work unit.
     * Real collectors follow roughly one pointer per few tens of
     * bytes, so a 4 KB unit is many dependent-load clusters.
     */
    static constexpr std::uint32_t kTraceClustersPerUnit = 4;

    /** Pointer-chase depth per trace cluster. */
    static constexpr std::uint32_t kTraceChainDepth = 6;

    /** Parallel chains per trace cluster (memory-level parallelism). */
    static constexpr std::uint32_t kTraceChains = 2;

    /** Instructions overlapped with each trace cluster. */
    static constexpr std::uint32_t kTraceOverlapInstructions = 600;

    /** Instructions per work-queue pop (inside the work lock). */
    static constexpr std::uint32_t kWorkPopInstructions = 150;

    /**
     * Copy units a worker grabs per work-lock round trip while the
     * simulation is fast-forwarding. Trace and copy work still scale
     * with the bytes grabbed, so the collection does the same amount
     * of simulated work; only the lock/pop/unlock action churn — the
     * dominant host cost of a fast-forwarded collection — shrinks.
     * Detail windows and exact mode always grab single units.
     */
    static constexpr std::uint32_t kFfCopyUnitBatch = 8;

    /**
     * @param rt   Owning runtime.
     * @param idx  Worker index (0 .. Runtime::kGcThreads-1); worker 0
     *             finishes each collection.
     */
    GcWorkerProgram(Runtime &rt, std::uint32_t idx);

    os::Action next(os::ThreadContext &ctx) override;

  private:
    enum class State {
        Parked,     ///< waiting for a collection
        GrabWork,   ///< lock the work queue
        PopWork,    ///< pop a unit (inside the lock)
        ReleaseWork,///< unlock
        Trace,      ///< pointer-chase the unit
        Copy,       ///< evacuate the unit
        Terminate,  ///< arrive at the termination barrier
        Finish,     ///< (worker 0) finish the collection
    };

    Runtime &_rt;
    std::uint32_t _idx;
    State _state = State::Parked;
    bool _haveUnit = false;
    std::uint64_t _unitBytes = 0;
    std::uint32_t _traceClustersDone = 0;
    /** Trace clusters this unit owes (scales with batched grabs). */
    std::uint32_t _traceClustersDue = 0;

    /** Addresses of the last full trace cluster (valid until next()). */
    uarch::ClusterAddressBuffer _addrs;
};

} // namespace dvfs::rt

#endif // DVFS_RT_GC_WORKER_HH
