/**
 * @file
 * Reference binary-heap event queue.
 *
 * The simplest correct EventQueue: a std::priority_queue of entry
 * pointers, kept as an executable specification of the dispatch-order
 * contract: earliest tick first, insertion order within a tick. The
 * differential test (tests/test_event_queue_differential.cc) drives
 * seeded random op streams through this queue and the production heap
 * and requires identical firing sequences.
 *
 * Not used on any simulation path; it lives under tests/ and only
 * the test binary builds it.
 */

#ifndef DVFS_TESTS_REFERENCE_EVENT_QUEUE_HH
#define DVFS_TESTS_REFERENCE_EVENT_QUEUE_HH

#include <cstdint>
#include <queue>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/inline_callback.hh"
#include "sim/time.hh"

namespace dvfs::sim {

/**
 * A deterministic discrete-event queue over a binary heap.
 *
 * Same external contract as EventQueue: events scheduled for the same
 * tick fire in insertion order, events may schedule further events
 * (including at the current tick), scheduling in the past panics.
 * Ordering within a tick is enforced by an explicit insertion sequence
 * number in the heap comparator. Each event is its own allocation,
 * freed after it fires.
 */
class ReferenceEventQueue
{
  public:
    ReferenceEventQueue();
    ~ReferenceEventQueue();

    ReferenceEventQueue(const ReferenceEventQueue &) = delete;
    ReferenceEventQueue &operator=(const ReferenceEventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return _now; }

    /** Schedule @p cb to run at absolute time @p when. */
    template <typename F>
    void
    schedule(Tick when, F &&cb)
    {
        acquire(when)->cb.emplace(std::forward<F>(cb));
    }

    /** Schedule @p cb to run @p delay ticks from now. */
    template <typename F>
    void
    scheduleAfter(Tick delay, F &&cb)
    {
        schedule(_now + delay, std::forward<F>(cb));
    }

    /** True if no runnable events remain. */
    bool empty() const { return _heap.empty(); }

    /** Number of pending events. */
    std::uint64_t pending() const { return _heap.size(); }

    /** Run the next event, advancing time to its tick. */
    bool runOne();

    /**
     * Run events until the queue empties or @p limit is reached.
     * Events at exactly @p limit are not executed; a limit at or
     * below now() runs nothing and leaves now() unchanged.
     */
    std::uint64_t runUntil(Tick limit);

    /** Run until the queue is empty. @return events executed. */
    std::uint64_t run();

    /** Total number of events executed since construction. */
    std::uint64_t executed() const { return _executed; }

  private:
    struct Entry {
        Tick when;
        std::uint64_t seq;  ///< insertion order (same-tick FIFO)
        EventCallback cb;
    };

    /** Validate @p when and push a fresh entry for it. */
    Entry *acquire(Tick when);

    /** Min-heap ordering: earliest tick first, then insertion order. */
    struct Later {
        bool
        operator()(const Entry *a, const Entry *b) const
        {
            if (a->when != b->when)
                return a->when > b->when;
            return a->seq > b->seq;
        }
    };

    /** Pop the earliest entry, advance time to it, fire and free it. */
    void dispatchTop();

    Tick _now;
    std::uint64_t _nextSeq;
    std::uint64_t _executed;
    std::priority_queue<Entry *, std::vector<Entry *>, Later> _heap;
};

} // namespace dvfs::sim

#endif // DVFS_TESTS_REFERENCE_EVENT_QUEUE_HH
