/**
 * @file
 * The action vocabulary of simulated threads.
 *
 * A thread program is a pull-driven state machine: whenever a thread's
 * previous action completes, the OS asks the program for the next
 * action. Actions carry only *logical* work — instruction counts,
 * addresses, synchronization object ids, allocation sizes — never
 * durations, so a program run at 1 GHz and at 4 GHz performs the
 * identical sequence of work (the replay-compilation property the
 * paper's methodology relies on).
 */

#ifndef DVFS_OS_ACTION_HH
#define DVFS_OS_ACTION_HH

#include <cstdint>
#include <type_traits>

#include "uarch/work.hh"

namespace dvfs::os {

/** Identifies a simulated thread. */
using ThreadId = std::uint32_t;

/** Sentinel thread id. */
constexpr ThreadId kNoThread = static_cast<ThreadId>(-1);

/** Identifies a futex / mutex / barrier. */
using SyncId = std::uint32_t;

/** Sentinel sync id. */
constexpr SyncId kNoSync = static_cast<SyncId>(-1);

/** What a thread wants to do next. */
enum class ActionKind {
    Compute,     ///< straight-line computation (uarch::ComputeSpec)
    MissCluster, ///< long-latency load cluster (uarch::MissClusterSpec)
    StoreBurst,  ///< store burst (uarch::StoreBurstSpec)
    MutexLock,   ///< acquire a mutex (may block)
    MutexUnlock, ///< release a mutex (may wake a waiter)
    BarrierWait, ///< arrive at a barrier (blocks unless last)
    FutexWait,   ///< park on a raw futex until woken
    Alloc,       ///< allocate managed memory (handled by the runtime)
    Join,        ///< wait for another thread to exit
    Exit,        ///< terminate this thread
};

/**
 * One action: a tagged union of 48 bytes. The payloads are small and
 * own no memory (a cluster's addresses live in the producing program's
 * buffer, see uarch::MissClusterSpec), so an action is trivially
 * copyable and moves through the OS without heap traffic; the OS
 * dispatch switch stays flat and readable. Only the member named by
 * @c kind is meaningful; a default action is an Exit with a zeroed
 * payload.
 */
struct Action {
    ActionKind kind = ActionKind::Exit;

    union {
        uarch::MissClusterSpec cluster;    ///< valid for MissCluster
        uarch::ComputeSpec compute;        ///< valid for Compute
        uarch::StoreBurstSpec burst;       ///< valid for StoreBurst
        SyncId sync;                       ///< mutex/barrier/futex id
        std::uint64_t allocBytes;          ///< valid for Alloc
        ThreadId joinTarget;               ///< valid for Join
    };

    Action() : cluster{} {}

    /// @name Factories
    /// @{
    static Action
    makeCompute(std::uint64_t instructions, std::uint32_t l2_loads = 0,
                std::uint32_t l3_loads = 0, double ipc_scale = 1.0)
    {
        Action a;
        a.kind = ActionKind::Compute;
        a.compute = uarch::ComputeSpec{instructions, l2_loads, l3_loads,
                                       ipc_scale};
        return a;
    }

    static Action
    makeCluster(const uarch::MissClusterSpec &spec)
    {
        Action a;
        a.kind = ActionKind::MissCluster;
        a.cluster = spec;
        return a;
    }

    static Action
    makeStoreBurst(std::uint64_t base, std::uint32_t lines,
                   std::uint32_t stores_per_line = 2)
    {
        Action a;
        a.kind = ActionKind::StoreBurst;
        a.burst = uarch::StoreBurstSpec{base, lines, stores_per_line};
        return a;
    }

    static Action
    makeMutexLock(SyncId m)
    {
        Action a;
        a.kind = ActionKind::MutexLock;
        a.sync = m;
        return a;
    }

    static Action
    makeMutexUnlock(SyncId m)
    {
        Action a;
        a.kind = ActionKind::MutexUnlock;
        a.sync = m;
        return a;
    }

    static Action
    makeBarrierWait(SyncId b)
    {
        Action a;
        a.kind = ActionKind::BarrierWait;
        a.sync = b;
        return a;
    }

    static Action
    makeFutexWait(SyncId f)
    {
        Action a;
        a.kind = ActionKind::FutexWait;
        a.sync = f;
        return a;
    }

    static Action
    makeAlloc(std::uint64_t bytes)
    {
        Action a;
        a.kind = ActionKind::Alloc;
        a.allocBytes = bytes;
        return a;
    }

    static Action
    makeJoin(ThreadId target)
    {
        Action a;
        a.kind = ActionKind::Join;
        a.joinTarget = target;
        return a;
    }

    static Action
    makeExit()
    {
        Action a;
        a.kind = ActionKind::Exit;
        return a;
    }
    /// @}
};

static_assert(std::is_trivially_copyable_v<Action>,
              "actions are copied by value on the dispatch path");
static_assert(sizeof(Action) <= 48, "an action is at most 48 bytes");

} // namespace dvfs::os

#endif // DVFS_OS_ACTION_HH
