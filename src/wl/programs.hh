/**
 * @file
 * Thread programs realising a WorkloadParams description.
 */

#ifndef DVFS_WL_PROGRAMS_HH
#define DVFS_WL_PROGRAMS_HH

#include <cstdint>
#include <vector>

#include "os/thread.hh"
#include "wl/params.hh"

namespace dvfs::wl {

/**
 * Workload-wide immutable context shared by all of a benchmark's
 * thread programs (created by the builder).
 */
struct SharedWorkload {
    WorkloadParams params;
    std::vector<os::SyncId> locks;       ///< application mutexes
    os::SyncId barrier = os::kNoSync;    ///< phase barrier (if used)
    std::vector<os::ThreadId> workers;   ///< worker tids (for joins)
};

/**
 * One worker: the benchmark's parallel loop.
 */
class WorkerProgram : public os::ThreadProgram
{
  public:
    /**
     * @param shared Workload context.
     * @param index  Worker index (0-based; index 0 may be a straggler).
     */
    WorkerProgram(const SharedWorkload &shared, std::uint32_t index);

    os::Action next(os::ThreadContext &ctx) override;

  private:
    enum class State {
        ItemStart,   ///< barrier check, first compute half
        Clusters,    ///< memory clusters
        LockEnter,   ///< optional critical section: acquire
        LockHold,    ///< work inside the critical section
        LockExit,    ///< release
        Alloc,       ///< allocation chunks
        ItemEnd,     ///< second compute half, advance the loop
        Done,        ///< exit
    };

    /**
     * Build one miss cluster over the hot/warm/cold regions. A full
     * spec's addresses are written into @c _addrs.
     */
    uarch::MissClusterSpec makeCluster(os::ThreadContext &ctx);

    const SharedWorkload &_sh;
    std::uint32_t _index;
    std::uint64_t _items;        ///< total items for this worker
    std::uint64_t _item = 0;     ///< current item
    /// @name Per-item sizes, straggler-scaled once at construction
    /// @{
    std::uint64_t _halfItemInstr;   ///< each compute half of an item
    std::uint64_t _lockHoldInstr;   ///< work inside the critical section
    std::uint64_t _itemAllocBytes;  ///< bytes allocated per item
    /// @}

    State _state = State::ItemStart;
    bool _barrierTaken = false;
    std::uint32_t _clustersLeft = 0;
    std::uint64_t _allocLeft = 0;
    std::uint32_t _lockId = 0;

    /** Addresses of the last full cluster (valid until next()). */
    uarch::ClusterAddressBuffer _addrs;
};

/**
 * The main (driver) thread: serial setup, join workers, serial
 * teardown — the DaCapo harness shape.
 */
class MainProgram : public os::ThreadProgram
{
  public:
    explicit MainProgram(const SharedWorkload &shared);

    os::Action next(os::ThreadContext &ctx) override;

  private:
    enum class State { Setup, Join, Teardown, Done };

    const SharedWorkload &_sh;
    State _state = State::Setup;
    std::size_t _joinIndex = 0;
};

} // namespace dvfs::wl

#endif // DVFS_WL_PROGRAMS_HH
