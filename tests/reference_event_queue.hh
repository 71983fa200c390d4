/**
 * @file
 * Reference binary-heap event queue.
 *
 * The simplest correct EventQueue: a std::priority_queue of entry
 * pointers with lazy cancellation, kept as an executable specification
 * of the dispatch-order contract: earliest tick first, insertion order
 * within a tick. The differential test
 * (tests/test_event_queue_differential.cc) drives seeded random op
 * streams through this queue and the production indexed heap and
 * requires identical firing sequences.
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
 * number in the heap comparator; cancelled entries stay in the heap
 * until they surface.
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
    EventId
    schedule(Tick when, F &&cb)
    {
        Entry *e = acquire(when);
        e->cb.emplace(std::forward<F>(cb));
        return makeId(e->slot, e->gen);
    }

    /** Schedule @p cb to run @p delay ticks from now. */
    template <typename F>
    EventId
    scheduleAfter(Tick delay, F &&cb)
    {
        return schedule(_now + delay, std::forward<F>(cb));
    }

    /** Cancel a previously scheduled event (false if already gone). */
    bool cancel(EventId id);

    /** True if no runnable events remain. */
    bool empty() const { return _live == 0; }

    /** Number of pending (non-cancelled) events. */
    std::uint64_t pending() const { return _live; }

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

    /** Number of entries ever allocated (pool high-water mark). */
    std::size_t entriesAllocated() const { return _entries.size(); }

  private:
    struct Entry {
        Tick when;
        std::uint64_t seq;   ///< insertion order (same-tick FIFO)
        EventCallback cb;
        std::uint32_t slot;  ///< permanent index into _entries
        std::uint32_t gen;   ///< bumped on retire; stale ids mismatch
        bool cancelled;
        bool live;           ///< scheduled and not yet fired/cancelled
    };

    static constexpr EventId
    makeId(std::uint32_t slot, std::uint32_t gen)
    {
        return (static_cast<EventId>(slot) + 1) << 32 | gen;
    }

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

    Entry *pop();

    Tick _now;
    std::uint64_t _nextSeq;
    std::uint64_t _live;
    std::uint64_t _executed;
    std::priority_queue<Entry *, std::vector<Entry *>, Later> _heap;
    std::vector<Entry *> _entries;  ///< every entry ever allocated
    std::vector<Entry *> _pool;     ///< freelist of recycled entries

    Entry *allocEntry();
    void freeEntry(Entry *e);

    Entry *resolve(EventId id) const;
};

} // namespace dvfs::sim

#endif // DVFS_TESTS_REFERENCE_EVENT_QUEUE_HH
