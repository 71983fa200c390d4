#include "pred/record.hh"

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

    Epoch ep;
    ep.start = _epochStart;
    ep.end = ev.tick;
    ep.boundary = ev.kind;
    ep.stallTid = (ev.kind == os::SyncEventKind::FutexWait)
                      ? ev.tid
                      : os::kNoThread;
    // One allocation per epoch instead of a 1 -> 2 -> 4 growth chain.
    std::size_t running = 0;
    for (std::size_t tid = 0; tid < n; ++tid) {
        running += sys.thread(static_cast<os::ThreadId>(tid)).state ==
                   os::ThreadState::Running;
    }
    ep.active.reserve(running);
    for (std::size_t tid = 0; tid < n; ++tid) {
        const os::Thread &t = sys.thread(static_cast<os::ThreadId>(tid));
        // The listener runs before the event's state change, so a
        // thread still marked Running was scheduled during the closing
        // epoch. Only counted threads have their snapshot refreshed:
        // counters committed while a thread was briefly on a core
        // between boundaries (same-tick preemptions) must carry
        // forward to the next epoch that observes the thread running,
        // or they would silently vanish from the decomposition.
        if (t.state == os::ThreadState::Running) {
            EpochThread et;
            et.tid = t.id;
            et.delta = t.counters - _snapshots[tid];
            ep.active.push_back(et);
            _snapshots[tid] = t.counters;
        }
    }
    _epochs.push_back(std::move(ep));
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
