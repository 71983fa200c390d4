#include "reference_event_queue.hh"

#include <memory>

#include "sim/log.hh"

namespace dvfs::sim {

ReferenceEventQueue::ReferenceEventQueue()
    : _now(0), _nextSeq(1), _executed(0)
{
}

ReferenceEventQueue::~ReferenceEventQueue()
{
    while (!_heap.empty()) {
        delete _heap.top();
        _heap.pop();
    }
}

ReferenceEventQueue::Entry *
ReferenceEventQueue::acquire(Tick when)
{
    if (when < _now) {
        panic("event scheduled in the past (when=%llu now=%llu)",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(_now));
    }
    Entry *e = new Entry();
    e->when = when;
    e->seq = _nextSeq++;
    _heap.push(e);
    return e;
}

void
ReferenceEventQueue::dispatchTop()
{
    std::unique_ptr<Entry> e(_heap.top());
    _heap.pop();
    DVFS_ASSERT(e->when >= _now, "event time went backwards");
    _now = e->when;
    ++_executed;
    e->cb();
}

bool
ReferenceEventQueue::runOne()
{
    if (_heap.empty())
        return false;
    dispatchTop();
    return true;
}

std::uint64_t
ReferenceEventQueue::runUntil(Tick limit)
{
    std::uint64_t n = 0;
    if (limit <= _now)
        return n;  // nothing is due before now; time never goes back
    while (!_heap.empty()) {
        if (_heap.top()->when >= limit) {
            _now = limit;  // it stays scheduled for a later call
            break;
        }
        dispatchTop();
        ++n;
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
