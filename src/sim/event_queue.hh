/**
 * @file
 * Discrete-event simulation kernel.
 *
 * The event queue is the single source of simulated time. Components
 * schedule callbacks at absolute ticks; the kernel dispatches them in
 * (tick, insertion-order) order, which makes simulations bitwise
 * deterministic for a given workload and configuration.
 *
 * The implementation is a binary min-heap (DESIGN.md §9) of 56-byte
 * keys {tick, insertion sequence, callback}: each key carries its
 * callback's captures inline, so the heap is the only storage and a
 * sift moves keys whole. The simulator keeps only four to six events
 * pending, so a sift moves a few keys. Nothing is ever cancelled: a
 * component whose deadline moves leaves the old event to fire as a
 * no-op (see SamplingController). The ordering contract —
 * earliest tick first, insertion order within a tick — is the (tick,
 * sequence) key order. ReferenceEventQueue (tests/) is its
 * differential oracle.
 */

#ifndef DVFS_SIM_EVENT_QUEUE_HH
#define DVFS_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <vector>

#include "sim/inline_callback.hh"
#include "sim/time.hh"

namespace dvfs::sim {

/**
 * Inline storage for an event callback's captures.
 *
 * Sized for the largest capture list in the tree: the mutex-unlock
 * and barrier-release continuations in os/system.cc capture
 * {System*, Thread*, MutexObj* or BarrierObj*, Tick} = 32 bytes. A
 * thread's counter delta waits on the thread (Thread::inFlight), never
 * in a capture. A schedule site whose captures outgrow this, or are
 * not trivially copyable, fails to compile (see
 * InlineCallback::emplace); shrink the capture — every heap key
 * carries this many bytes.
 */
inline constexpr std::size_t kEventCallbackBytes = 32;

/** Callback type executed when an event fires (allocation-free). */
using EventCallback = InlineCallback<kEventCallbackBytes>;

/**
 * A deterministic discrete-event queue over a binary heap.
 *
 * Events scheduled for the same tick fire in insertion order. Events
 * may schedule further events, including at the current tick (they run
 * after all previously-inserted same-tick events). Scheduling in the
 * past is a simulator bug and panics; so is scheduling at the
 * kTickNever sentinel, which means "no deadline".
 */
class EventQueue
{
  public:
    EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return _now; }

    /**
     * Schedule @p cb to run at absolute time @p when.
     *
     * The callable is constructed into the event's heap key;
     * captures larger than kEventCallbackBytes, or not trivially
     * copyable, are a compile-time error.
     *
     * @param when Absolute tick, must be >= now() and != kTickNever.
     * @param cb   Callback to execute.
     */
    template <typename F>
    void
    schedule(Tick when, F &&cb)
    {
        _heap[push(when)].cb.emplace(std::forward<F>(cb));
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

    /**
     * Run the next event, advancing time to its tick.
     *
     * @return false if the queue was empty.
     */
    bool runOne();

    /**
     * Run events until the queue empties or @p limit is reached.
     *
     * Events scheduled at exactly @p limit are not executed; time
     * stops at the last executed event, or at @p limit if events
     * remain beyond it. A limit at or below now() runs nothing and
     * leaves now() unchanged: time never moves backwards.
     *
     * @return Number of events executed.
     */
    std::uint64_t runUntil(Tick limit);

    /** Run until the queue is empty. @return events executed. */
    std::uint64_t run();

    /** Total number of events executed since construction. */
    std::uint64_t executed() const { return _executed; }

  private:
    /**
     * A pending event: what the heap orders, with its callback
     * inline, so a schedule/fire cycle allocates nothing once the
     * heap's vector has reached the pending high-water mark.
     */
    struct Key {
        Tick when;
        std::uint64_t seq;  ///< insertion order (same-tick FIFO)
        EventCallback cb;
    };

    /** Heap order: earliest tick first, then insertion order. */
    static bool
    before(Tick when, std::uint64_t seq, const Key &b)
    {
        return when != b.when ? when < b.when : seq < b.seq;
    }

    static bool
    before(const Key &a, const Key &b)
    {
        return before(a.when, a.seq, b);
    }

    /**
     * Validate @p when and push a key for it with the next sequence
     * number. @return the key's heap index; the caller constructs its
     * callback there.
     */
    std::size_t push(Tick when);

    /** Remove the earliest key, keeping the heap order. */
    void popFront();

    /** Pop the earliest key, advance time to it, and fire it. */
    void dispatchFront();

    Tick _now;  ///< reported simulated time
    std::uint64_t _nextSeq;
    std::uint64_t _executed;

    std::vector<Key> _heap;  ///< min-heap of pending events
};

} // namespace dvfs::sim

#endif // DVFS_SIM_EVENT_QUEUE_HH
