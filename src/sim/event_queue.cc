#include "sim/event_queue.hh"

#include "sim/log.hh"
#include "sim/profile.hh"

namespace dvfs::sim {

EventQueue::EventQueue() : _now(0), _nextSeq(0), _executed(0) {}

std::size_t
EventQueue::push(Tick when)
{
    if (when < _now) {
        panic("event scheduled in the past (when=%llu now=%llu)",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(_now));
    }
    if (when == kTickNever)
        panic("event scheduled at the kTickNever sentinel");
    const std::uint64_t seq = _nextSeq++;
    // Grows only past the pending high-water mark.
    _heap.emplace_back();
    // Sift the hole up, moving parents down.
    std::size_t i = _heap.size() - 1;
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (!before(when, seq, _heap[parent]))
            break;
        _heap[i] = _heap[parent];
        i = parent;
    }
    _heap[i].when = when;
    _heap[i].seq = seq;
    return i;
}

void
EventQueue::popFront()
{
    // The last key refills the root: sift the hole down, moving
    // children up, within the keys before it.
    const std::size_t n = _heap.size() - 1;
    const Tick when = _heap[n].when;
    const std::uint64_t seq = _heap[n].seq;
    std::size_t i = 0;
    for (;;) {
        std::size_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && before(_heap[child + 1], _heap[child]))
            ++child;
        if (before(when, seq, _heap[child]))
            break;  // the last key settles here
        _heap[i] = _heap[child];
        i = child;
    }
    _heap[i] = _heap[n];
    _heap.pop_back();
}

void
EventQueue::dispatchFront()
{
    // Fire a copy: the key is off the heap before its callback runs,
    // so the callback may schedule freely (including same-tick).
    EventCallback cb = _heap.front().cb;
    DVFS_ASSERT(_heap.front().when >= _now, "event time went backwards");
    _now = _heap.front().when;
    popFront();
    ++_executed;
    cb();
}

bool
EventQueue::runOne()
{
    DVFS_PROFILE_SCOPE(Kernel);
    if (_heap.empty())
        return false;
    dispatchFront();
    return true;
}

std::uint64_t
EventQueue::runUntil(Tick limit)
{
    DVFS_PROFILE_SCOPE(Kernel);
    std::uint64_t n = 0;
    if (limit <= _now)
        return n;  // nothing is due before now; time never goes back
    while (!_heap.empty()) {
        if (_heap.front().when >= limit) {
            _now = limit;  // events remain at or beyond the limit
            break;
        }
        dispatchFront();
        ++n;
    }
    return n;
}

std::uint64_t
EventQueue::run()
{
    DVFS_PROFILE_SCOPE(Kernel);
    std::uint64_t n = 0;
    while (!_heap.empty()) {
        dispatchFront();
        ++n;
    }
    return n;
}

} // namespace dvfs::sim
