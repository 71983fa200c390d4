/**
 * @file
 * Simulated threads and the thread-program interface.
 *
 * A thread has at most one action in flight, and the counters that
 * action earns wait on the thread (Thread::inFlight) until the event
 * at its completion tick commits them; the event itself captures only
 * pointers and a tick.
 */

#ifndef DVFS_OS_THREAD_HH
#define DVFS_OS_THREAD_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "os/action.hh"
#include "sim/rng.hh"
#include "sim/time.hh"
#include "uarch/perf_counters.hh"

namespace dvfs::os {

/** Lifecycle state of a thread. */
enum class ThreadState {
    New,      ///< created, not yet released to the scheduler
    Ready,    ///< runnable, waiting for a core
    Running,  ///< occupying a core
    Blocked,  ///< parked on a futex
    Finished, ///< exited
};

/** Printable name of a thread state. */
const char *threadStateName(ThreadState s);

/**
 * Context handed to a thread program when it is asked for its next
 * action. Deliberately minimal: programs must be time-blind (they may
 * not observe simulated time) so the identical action stream is
 * produced at every DVFS setting.
 */
struct ThreadContext {
    ThreadId tid;
    sim::Rng &rng;

    /**
     * True when the OS is fast-forwarding (sampled mode): the program
     * may return address-free lite work descriptors (uarch work specs
     * with their lite fields set) instead of materialising addresses,
     * and skip the draws that would only have picked addresses, so
     * the sampled run is its own deterministic stream. Programs may
     * ignore the flag — a full spec is always acceptable.
     */
    bool liteTiming = false;
};

/**
 * A thread's behaviour: a pull-driven generator of actions.
 *
 * next() is called exactly once per completed action; returning an
 * Exit action ends the thread. Programs own all their workload state
 * (loop counters, address cursors, ...), including the addresses of a
 * full miss cluster they return, which stay valid until the next
 * next() call (uarch::MissClusterSpec).
 */
class ThreadProgram
{
  public:
    virtual ~ThreadProgram() = default;

    /** Produce the thread's next action. */
    virtual Action next(ThreadContext &ctx) = 0;
};

/**
 * OS bookkeeping for one thread.
 */
class Thread
{
  public:
    Thread(ThreadId id, std::string name,
           std::unique_ptr<ThreadProgram> program, bool service,
           sim::Rng rng)
        : id(id), name(std::move(name)), program(std::move(program)),
          service(service), rng(rng)
    {
    }

    const ThreadId id;
    const std::string name;
    std::unique_ptr<ThreadProgram> program;

    /** True for runtime service threads (GC workers). */
    const bool service;

    /** Per-thread deterministic random stream. */
    sim::Rng rng;

    ThreadState state = ThreadState::New;

    /** Core the thread occupies while Running, -1 otherwise. */
    std::int32_t core = -1;

    /** Futex the thread is parked on while Blocked. */
    SyncId blockedOn = kNoSync;

    /**
     * Set when the thread was spuriously woken: on its next dispatch
     * it re-parks on this futex (the user-space retry loop) instead of
     * consulting its program. The thread keeps its wait-queue entry,
     * so a genuine wake during the retry window is never lost.
     */
    SyncId retryFutex = kNoSync;

    /** Tick at which the thread last became Blocked (diagnostics). */
    Tick blockedSince = kTickNever;

    /** Hardware counters, virtualized per thread by the OS. */
    uarch::PerfCounters counters;

    /**
     * Counters earned by the in-flight action — a timed action, a
     * context switch, an atomic or a fast-forward lump — charged when
     * it is issued and added to counters by System::commitInFlight at
     * its completion tick. Zero while nothing is in flight.
     */
    uarch::PerfCounters inFlight;

    /** Tick the thread first became ready. */
    Tick spawnTick = 0;

    /** Tick the thread was first scheduled onto a core. */
    Tick firstRunTick = kTickNever;

    /** Tick the thread exited (kTickNever while live). */
    Tick exitTick = kTickNever;

    /** Start of the thread's current timeslice. */
    Tick sliceStart = 0;

    /** Futex other threads wait on to join this thread. */
    SyncId exitFutex = kNoSync;

    /**
     * Non-chargeable action that terminated the in-flight fast-forward
     * lump (sampled mode), if any; it runs when the lump commits.
     */
    std::optional<Action> ffPending;

    bool finished() const { return state == ThreadState::Finished; }
};

} // namespace dvfs::os

#endif // DVFS_OS_THREAD_HH
