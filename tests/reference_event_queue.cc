#include "reference_event_queue.hh"

#include "sim/log.hh"

namespace dvfs::sim {

ReferenceEventQueue::ReferenceEventQueue()
    : _now(0), _nextSeq(1), _live(0), _executed(0)
{
}

ReferenceEventQueue::~ReferenceEventQueue()
{
    for (Entry *e : _entries)
        delete e;
}

ReferenceEventQueue::Entry *
ReferenceEventQueue::allocEntry()
{
    if (!_pool.empty()) {
        Entry *e = _pool.back();
        _pool.pop_back();
        return e;
    }
    Entry *e = new Entry();
    e->slot = static_cast<std::uint32_t>(_entries.size());
    e->gen = 0;
    _entries.push_back(e);
    return e;
}

void
ReferenceEventQueue::freeEntry(Entry *e)
{
    e->cb.reset();
    ++e->gen;  // invalidate any EventId still pointing at this entry
    if (_pool.size() < 4096)
        _pool.push_back(e);
}

ReferenceEventQueue::Entry *
ReferenceEventQueue::resolve(EventId id) const
{
    std::uint64_t slot_plus_one = id >> 32;
    if (slot_plus_one == 0 || slot_plus_one > _entries.size())
        return nullptr;
    Entry *e = _entries[static_cast<std::size_t>(slot_plus_one) - 1];
    if (!e->live || e->gen != static_cast<std::uint32_t>(id))
        return nullptr;
    return e;
}

ReferenceEventQueue::Entry *
ReferenceEventQueue::acquire(Tick when)
{
    if (when < _now) {
        panic("event scheduled in the past (when=%llu now=%llu)",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(_now));
    }
    Entry *e = allocEntry();
    e->when = when;
    e->seq = _nextSeq++;
    e->cancelled = false;
    e->live = true;
    _heap.push(e);
    ++_live;
    return e;
}

bool
ReferenceEventQueue::cancel(EventId id)
{
    Entry *e = resolve(id);
    if (!e)
        return false;
    e->cancelled = true;
    e->live = false;
    --_live;
    return true;
}

ReferenceEventQueue::Entry *
ReferenceEventQueue::pop()
{
    while (!_heap.empty()) {
        Entry *e = _heap.top();
        _heap.pop();
        if (e->cancelled) {
            freeEntry(e);
            continue;
        }
        return e;
    }
    return nullptr;
}

bool
ReferenceEventQueue::runOne()
{
    Entry *e = pop();
    if (!e)
        return false;
    DVFS_ASSERT(e->when >= _now, "event time went backwards");
    _now = e->when;
    e->live = false;
    --_live;
    ++_executed;
    EventCallback cb = std::move(e->cb);
    freeEntry(e);
    cb();
    return true;
}

std::uint64_t
ReferenceEventQueue::runUntil(Tick limit)
{
    std::uint64_t n = 0;
    if (limit <= _now)
        return n;  // nothing is due before now; time never goes back
    while (true) {
        Entry *e = pop();
        if (!e)
            break;
        if (e->when >= limit) {
            // Put it back; it stays scheduled for a later call.
            _heap.push(e);
            _now = limit;
            break;
        }
        _now = e->when;
        e->live = false;
        --_live;
        ++_executed;
        ++n;
        EventCallback cb = std::move(e->cb);
        freeEntry(e);
        cb();
    }
    return n;
}

std::uint64_t
ReferenceEventQueue::run()
{
    std::uint64_t n = 0;
    while (runOne())
        ++n;
    return n;
}

} // namespace dvfs::sim
