#include "sim/event_queue.hh"

#include "sim/log.hh"
#include "sim/profile.hh"

namespace dvfs::sim {

EventQueue::EventQueue() : _now(0), _nextSeq(0), _executed(0) {}

EventQueue::~EventQueue()
{
    // A run may end (main exit, requestStop) with events still
    // scheduled; every entry ever allocated is owned by _entries.
    for (Entry *e : _entries)
        delete e;
}

EventQueue::Entry *
EventQueue::allocEntry()
{
    if (!_pool.empty()) {
        Entry *e = _pool.back();
        _pool.pop_back();
        return e;
    }
    Entry *e = new Entry();
    _entries.push_back(e);
    return e;
}

void
EventQueue::freeEntry(Entry *e)
{
    e->cb.reset();
    if (_pool.size() < 4096)
        _pool.push_back(e);
    // Over-full pool: the entry stays parked in _entries and is
    // reclaimed by the destructor.
}

EventQueue::Entry *
EventQueue::acquire(Tick when)
{
    if (when < _now) {
        panic("event scheduled in the past (when=%llu now=%llu)",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(_now));
    }
    if (when == kTickNever)
        panic("event scheduled at the kTickNever sentinel");
    Entry *e = allocEntry();
    // Grows only past the pending high-water mark.
    _heap.emplace_back();
    siftUp(_heap.size() - 1, Key{when, _nextSeq++, e});
    return e;
}

void
EventQueue::siftUp(std::size_t i, Key k)
{
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (!before(k, _heap[parent]))
            break;
        _heap[i] = _heap[parent];
        i = parent;
    }
    _heap[i] = k;
}

void
EventQueue::siftDown(std::size_t i, Key k)
{
    const std::size_t n = _heap.size();
    for (;;) {
        std::size_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && before(_heap[child + 1], _heap[child]))
            ++child;
        if (!before(_heap[child], k))
            break;
        _heap[i] = _heap[child];
        i = child;
    }
    _heap[i] = k;
}

void
EventQueue::popFront()
{
    // The last key refills the root and settles below it.
    const Key last = _heap.back();
    _heap.pop_back();
    if (!_heap.empty())
        siftDown(0, last);
}

void
EventQueue::dispatchFront()
{
    const Key k = _heap.front();
    DVFS_ASSERT(k.when >= _now, "event time went backwards");
    _now = k.when;
    popFront();
    ++_executed;
    // Invoke in place: the key is already off the heap, so the
    // callback may schedule freely (including same-tick); the entry
    // just cannot be recycled until it returns.
    k.entry->cb();
    freeEntry(k.entry);
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
