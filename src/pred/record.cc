#include "pred/record.hh"

#include <algorithm>

#include "sim/log.hh"
#include "sim/profile.hh"

namespace dvfs::pred {

RunRecorder::RunRecorder(os::System &sys)
    : _sys(sys), _baseFreq(sys.frequency())
{
}

void
RunRecorder::onSyncEvent(const os::SyncEvent &ev, const os::System &sys)
{
    DVFS_PROFILE_SCOPE(Record);
    switch (ev.kind) {
      case os::SyncEventKind::GcBegin:
        _gcMarks.push_back(GcPhaseMark{ev.tick, true});
        closeEpoch(ev, sys);
        break;
      case os::SyncEventKind::GcEnd:
        _gcMarks.push_back(GcPhaseMark{ev.tick, false});
        closeEpoch(ev, sys);
        break;
      default:
        closeEpoch(ev, sys);
        break;
    }
}

void
RunRecorder::closeEpoch(const os::SyncEvent &ev, const os::System &sys)
{
    const std::size_t n = sys.numThreads();
    if (_snapshots.size() < n)
        _snapshots.resize(n);

    if (ev.tick <= _epochStart)
        return;  // zero-length: deltas carry to the next real epoch

    _epochs.open(_epochStart, ev.tick, ev.kind,
                 ev.kind == os::SyncEventKind::FutexWait ? ev.tid
                                                         : os::kNoThread);
    // The listener runs before the event's state change, so the
    // threads on cores are the ones that ran during the closing epoch
    // (a thread is Running exactly while it occupies a core). Rows go
    // in ascending tid order. Only counted threads have their snapshot
    // refreshed: counters committed while a thread was briefly on a
    // core between boundaries (same-tick preemptions) must carry
    // forward to the next epoch that observes the thread running, or
    // they would silently vanish from the decomposition.
    const os::Scheduler &sched = sys.scheduler();
    _running.clear();
    for (std::uint32_t c = 0; c < sched.cores(); ++c) {
        if (sched.occupant(c) != os::kNoThread)
            _running.push_back(sched.occupant(c));
    }
    std::sort(_running.begin(), _running.end());
    for (os::ThreadId tid : _running) {
        const os::Thread &t = sys.thread(tid);
        _epochs.addRow(t.id, t.counters - _snapshots[t.id]);
        _snapshots[t.id] = t.counters;
    }
    _epochStart = ev.tick;
}

RunRecord
RunRecorder::finalize()
{
    if (_finalized)
        fatal("RunRecorder::finalize called twice");
    _finalized = true;

    RunRecord rec;
    rec.baseFreq = _baseFreq;
    rec.totalTime = _sys.now();
    rec.epochs = std::move(_epochs);
    rec.epochs.shrinkToFit();
    rec.gcMarks = std::move(_gcMarks);

    for (std::size_t i = 0; i < _sys.numThreads(); ++i) {
        const os::Thread &t = _sys.thread(static_cast<os::ThreadId>(i));
        ThreadSummary s;
        s.tid = t.id;
        s.service = t.service;
        s.spawnTick = t.spawnTick;
        s.exitTick = t.exitTick != kTickNever ? t.exitTick : _sys.now();
        s.totals = t.counters;
        rec.threads.push_back(s);
    }
    return rec;
}

} // namespace dvfs::pred
