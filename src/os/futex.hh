/**
 * @file
 * Futex table: kernel-side wait queues keyed by sync id.
 *
 * Mirrors the Linux futex interface the paper intercepts: user-space
 * synchronization objects (mutexes, barriers) enter the kernel only to
 * sleep and to wake sleepers. The table holds FIFO wait queues; policy
 * (who to wake, when) lives in the callers.
 *
 * Sync ids are allocated densely, so the queues live in a flat vector
 * indexed by id, and each queue keeps its capacity once grown: the
 * wait/wake fast path performs no hashing and, in steady state, no
 * allocation.
 */

#ifndef DVFS_OS_FUTEX_HH
#define DVFS_OS_FUTEX_HH

#include <cstdint>
#include <vector>

#include "os/action.hh"

namespace dvfs::os {

/**
 * Wait queues for all futexes in the machine.
 */
class FutexTable
{
  public:
    /** Allocate a fresh futex id. */
    SyncId allocate();

    /** Enqueue @p tid on futex @p f (caller marks the thread Blocked). */
    void wait(SyncId f, ThreadId tid);

    /**
     * Dequeue up to @p n waiters from futex @p f into @p out (cleared
     * first), FIFO order.
     *
     * The out-parameter form exists for the hot path: callers keep a
     * reusable buffer so a wake allocates nothing. The buffer is the
     * caller's; the table never holds a reference past the call.
     *
     * @return Number of threads woken (== out.size()).
     */
    std::size_t wake(SyncId f, std::uint32_t n, std::vector<ThreadId> &out);

    /** Convenience form of wake() returning a fresh vector. */
    std::vector<ThreadId>
    wake(SyncId f, std::uint32_t n)
    {
        std::vector<ThreadId> out;
        wake(f, n, out);
        return out;
    }

    /** Number of threads parked on futex @p f. */
    std::size_t waiters(SyncId f) const;

    /**
     * Remove @p tid from whatever queue it is in (used only for
     * diagnostics/teardown; normal operation never cancels waits).
     * @return true if the thread was found and removed.
     */
    bool remove(SyncId f, ThreadId tid);

    /** Total threads parked across all futexes. */
    std::size_t totalWaiters() const { return _waiting; }

    /** Drop all queues and reset the id allocator. */
    void reset();

  private:
    /**
     * One futex's FIFO wait queue. Dequeuing never releases capacity,
     * so a queue allocates only while it grows to its longest length
     * (a handful of threads per mutex/barrier) and never after.
     */
    using WaitQueue = std::vector<ThreadId>;

    SyncId _next = 0;
    std::vector<WaitQueue> _queues;  ///< indexed by SyncId, dense
    std::size_t _waiting = 0;        ///< total parked threads
};

} // namespace dvfs::os

#endif // DVFS_OS_FUTEX_HH
