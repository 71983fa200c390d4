#include "fault/auditor.hh"

#include "sim/log.hh"

namespace dvfs::fault {

InvariantAuditor::InvariantAuditor(os::System &sys) : _sys(sys) {}

void
InvariantAuditor::attach()
{
    if (_attached)
        fatal("InvariantAuditor::attach called twice");
    _attached = true;
    _sys.addListener(this);
    _lastProgressTick = _sys.now();
    scheduleNext();
}

void
InvariantAuditor::scheduleNext()
{
    _sys.eventQueue().scheduleAfter(kInterval, [this] { audit(); });
}

void
InvariantAuditor::violation(const char *check, std::string message)
{
    if (_violations.size() < kMaxViolations)
        _violations.push_back(
            Violation{_sys.now(), check, std::move(message)});
}

void
InvariantAuditor::onSyncEvent(const os::SyncEvent &ev, const os::System &)
{
    // The trace is the predictors' ground truth: it must never move
    // backwards in time.
    if (ev.tick < _lastEventTick) {
        violation("monotonic-trace",
                  strprintf("event %s at tick %llu after tick %llu",
                            os::syncEventKindName(ev.kind),
                            static_cast<unsigned long long>(ev.tick),
                            static_cast<unsigned long long>(_lastEventTick)));
    }
    _lastEventTick = ev.tick;
}

void
InvariantAuditor::audit()
{
    if (_sys.runEnded() || _sys.stopRequested())
        return;
    ++_audits;
    checkMonotonicTime();
    checkSchedulerOccupancy();
    checkThreadConservation();
    checkEpochAccounting();
    checkWatchdog();
    if (!_watchdog.fired)
        scheduleNext();
}

void
InvariantAuditor::checkMonotonicTime()
{
    ++_checksRun;
    const Tick now = _sys.now();
    if (now < _lastAuditTick) {
        violation("monotonic-clock",
                  strprintf("audit at tick %llu after tick %llu",
                            static_cast<unsigned long long>(now),
                            static_cast<unsigned long long>(_lastAuditTick)));
    }
    _lastAuditTick = now;
}

void
InvariantAuditor::checkSchedulerOccupancy()
{
    ++_checksRun;
    const os::Scheduler &sched = _sys.scheduler();

    // Every occupied core must hold a Running thread that agrees
    // about its placement, and vice versa.
    std::uint32_t occupied = 0;
    for (std::uint32_t c = 0; c < sched.cores(); ++c) {
        os::ThreadId tid = sched.occupant(c);
        if (tid == os::kNoThread)
            continue;
        ++occupied;
        if (tid >= _sys.numThreads()) {
            violation("sched-occupancy",
                      strprintf("core %u holds unknown thread %u", c, tid));
            continue;
        }
        const os::Thread &t = _sys.thread(tid);
        if (t.state != os::ThreadState::Running ||
            t.core != static_cast<std::int32_t>(c)) {
            violation(
                "sched-occupancy",
                strprintf("core %u holds thread %u ('%s') in state %s "
                          "with core field %d",
                          c, tid, t.name.c_str(),
                          os::threadStateName(t.state), t.core));
        }
    }

    std::uint32_t running = 0;
    for (std::size_t i = 0; i < _sys.numThreads(); ++i) {
        const os::Thread &t = _sys.thread(static_cast<os::ThreadId>(i));
        if (t.state != os::ThreadState::Running)
            continue;
        ++running;
        if (t.core < 0 ||
            static_cast<std::uint32_t>(t.core) >= sched.cores() ||
            sched.occupant(static_cast<std::uint32_t>(t.core)) != t.id) {
            violation("sched-occupancy",
                      strprintf("running thread %u ('%s') not the "
                                "occupant of its core %d",
                                t.id, t.name.c_str(), t.core));
        }
    }

    if (occupied != running || occupied != sched.busyCores()) {
        violation("sched-occupancy",
                  strprintf("occupied cores %u, running threads %u, "
                            "busyCores() %u disagree",
                            occupied, running, sched.busyCores()));
    }
}

void
InvariantAuditor::checkThreadConservation()
{
    ++_checksRun;
    // Committed busy time only covers completed actions, each of which
    // ran inside [spawn, now]: a thread can never have been busier
    // than it has been alive.
    const Tick now = _sys.now();
    for (std::size_t i = 0; i < _sys.numThreads(); ++i) {
        const os::Thread &t = _sys.thread(static_cast<os::ThreadId>(i));
        const Tick alive = now - t.spawnTick;
        if (t.counters.busyTime > alive + kDecompositionSlack) {
            violation("busy-conservation",
                      strprintf("thread %u ('%s') busy %llu ticks but "
                                "alive only %llu",
                                t.id, t.name.c_str(),
                                static_cast<unsigned long long>(
                                    t.counters.busyTime),
                                static_cast<unsigned long long>(alive)));
        }
    }
}

void
InvariantAuditor::checkEpochAccounting()
{
    if (!_rec)
        return;
    ++_checksRun;
    const auto &epochs = _rec->epochs();
    for (; _epochCursor < epochs.size(); ++_epochCursor) {
        const pred::Epoch &ep = epochs[_epochCursor];
        if (ep.end <= ep.start) {
            violation("epoch-order",
                      strprintf("epoch %zu is empty or reversed "
                                "(%llu..%llu)",
                                _epochCursor,
                                static_cast<unsigned long long>(ep.start),
                                static_cast<unsigned long long>(ep.end)));
        }
        if (_epochCursor > 0 &&
            ep.start < epochs[_epochCursor - 1].end) {
            violation("epoch-order",
                      strprintf("epoch %zu overlaps its predecessor",
                                _epochCursor));
        }
        // Scaling + non-scaling decomposition must conserve busy time
        // for every active thread: the core model splits each action's
        // elapsed time exactly into computeTime and trueMemTime.
        for (const pred::EpochThread &et : ep.active) {
            const Tick split = et.delta.computeTime + et.delta.trueMemTime;
            const Tick busy = et.delta.busyTime;
            const Tick diff = split > busy ? split - busy : busy - split;
            if (diff > kDecompositionSlack) {
                violation(
                    "epoch-conservation",
                    strprintf("epoch %zu thread %u: scaling %llu + "
                              "non-scaling %llu != busy %llu",
                              _epochCursor, et.tid,
                              static_cast<unsigned long long>(
                                  et.delta.computeTime),
                              static_cast<unsigned long long>(
                                  et.delta.trueMemTime),
                              static_cast<unsigned long long>(busy)));
            }
        }
    }
}

void
InvariantAuditor::checkWatchdog()
{
    ++_checksRun;
    const std::uint64_t instructions =
        _sys.totalCounters().instructions;
    if (instructions != _lastInstructions) {
        _lastInstructions = instructions;
        _lastProgressTick = _sys.now();
        return;
    }
    if (_sys.liveAppThreads() == 0)
        return;  // winding down, nothing to watch
    if (_sys.now() - _lastProgressTick < kWatchdogTimeout)
        return;

    // Hung: events still fire (or we would not be here), yet no thread
    // has retired an instruction for a full timeout. Produce the
    // structured diagnostic and stop the run.
    _watchdog.fired = true;
    _watchdog.tick = _sys.now();
    _watchdog.stalledSince = _lastProgressTick;
    std::string detail;
    for (std::size_t i = 0; i < _sys.numThreads(); ++i) {
        const os::Thread &t = _sys.thread(static_cast<os::ThreadId>(i));
        if (t.state != os::ThreadState::Blocked)
            continue;
        _watchdog.blockedThreads.push_back(t.id);
        detail += strprintf("  thread %u ('%s') blocked on futex %u "
                            "since tick %llu\n",
                            t.id, t.name.c_str(), t.blockedOn,
                            static_cast<unsigned long long>(
                                t.blockedSince));
    }
    _watchdog.message = strprintf(
        "watchdog: no instruction retired since tick %llu "
        "(%zu thread(s) blocked)\n%s",
        static_cast<unsigned long long>(_lastProgressTick),
        _watchdog.blockedThreads.size(), detail.c_str());
    _sys.requestStop(_watchdog.message);
}

} // namespace dvfs::fault
