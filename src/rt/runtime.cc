#include "rt/runtime.hh"

#include <algorithm>
#include <memory>

#include "fault/fault_plan.hh"
#include "rt/gc_worker.hh"
#include "sim/log.hh"

namespace dvfs::rt {

Runtime::Runtime(os::System &sys, const RuntimeConfig &cfg)
    : _sys(sys), _survivalRate(cfg.survivalRate), _heap(cfg.nurseryBytes)
{
    if (_survivalRate < 0.0 || _survivalRate > 1.0)
        fatal("survival rate must be in [0, 1]");
}

void
Runtime::attach()
{
    if (_attached)
        fatal("Runtime::attach called twice");
    _attached = true;

    _gcStartFutex = _sys.createFutex();
    _gcWorkFutex = _sys.createFutex();
    _gcWorkLock = _sys.createMutex();
    _gcBarrier = _sys.createBarrier(kGcThreads);

    for (std::uint32_t i = 0; i < kGcThreads; ++i) {
        auto prog = std::make_unique<GcWorkerProgram>(*this, i);
        os::ThreadId tid = _sys.addThread(strprintf("gc-%u", i),
                                          std::move(prog), true);
        _workers.push_back(tid);
    }

    _sys.setInterceptor(this);
    _sys.addListener(this);
}

Runtime::MutatorState &
Runtime::mutatorState(os::ThreadId tid)
{
    if (tid >= _mutators.size())
        _mutators.resize(tid + 1);
    return _mutators[tid];
}

os::Action
Runtime::beginZeroing(os::ThreadId tid, std::uint64_t addr,
                      std::uint64_t bytes)
{
    MutatorState &ms = mutatorState(tid);
    ms.zeroCursor = addr;
    ms.zeroLinesLeft = (bytes + 63) / 64;
    return nextZeroChunk(ms);
}

os::Action
Runtime::nextZeroChunk(MutatorState &ms)
{
    auto lines = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        ms.zeroLinesLeft, kMaxZeroLinesPerBurst));
    os::Action a = os::Action::makeStoreBurst(ms.zeroCursor, lines);
    ms.zeroCursor += static_cast<std::uint64_t>(lines) * 64;
    ms.zeroLinesLeft -= lines;
    return a;
}

std::optional<os::Action>
Runtime::interceptNext(os::Thread &t)
{
    if (t.service)
        return std::nullopt;

    MutatorState &ms = mutatorState(t.id);

    // Continuation of a split zero-initialisation burst.
    if (ms.zeroLinesLeft > 0)
        return nextZeroChunk(ms);

    // Safepoint poll: park while a collection is pending or active.
    if (_phase != GcPhase::Idle)
        return os::Action::makeFutexWait(_gcStartFutex);

    // Retry an allocation that triggered the last collection.
    if (ms.pendingAllocBytes > 0) {
        std::uint64_t bytes = ms.pendingAllocBytes;
        auto addr = _heap.allocate(bytes);
        if (!addr) {
            // Nursery filled up again before this thread got to run
            // (another mutator won the race): collect again.
            requestGc();
            return os::Action::makeFutexWait(_gcStartFutex);
        }
        ms.pendingAllocBytes = 0;
        return beginZeroing(t.id, *addr, bytes);
    }

    return std::nullopt;
}

std::optional<os::Action>
Runtime::onAlloc(os::Thread &t, std::uint64_t bytes)
{
    DVFS_ASSERT(!t.service, "GC worker performed a managed allocation");
    if (bytes == 0)
        return os::Action::makeCompute(10);

    auto addr = _heap.allocate(bytes);
    if (addr)
        return beginZeroing(t.id, *addr, bytes);

    // Nursery full: remember the request, stop the world.
    mutatorState(t.id).pendingAllocBytes = bytes;
    requestGc();
    return os::Action::makeFutexWait(_gcStartFutex);
}

void
Runtime::requestGc()
{
    if (_phase == GcPhase::Idle)
        _phase = GcPhase::Requested;
}

void
Runtime::onSyncEvent(const os::SyncEvent &ev, const os::System &sys)
{
    (void)sys;
    if (_phase != GcPhase::Requested)
        return;
    // Quiescence can only be reached when a thread parks or exits.
    // The event fires before the state change is applied, so defer
    // the check until the current event finishes.
    if (ev.kind == os::SyncEventKind::FutexWait ||
        ev.kind == os::SyncEventKind::ThreadExit) {
        _sys.eventQueue().schedule(_sys.now(),
                                   [this] { maybeBeginCollection(); });
    }
}

void
Runtime::maybeBeginCollection()
{
    if (_phase != GcPhase::Requested)
        return;
    if (!_sys.appThreadsQuiescent())
        return;
    // All workers must be parked on the work futex (they might still
    // be winding down from the previous collection).
    for (os::ThreadId w : _workers) {
        const os::Thread &wt = _sys.thread(w);
        if (wt.state != os::ThreadState::Blocked ||
            wt.blockedOn != _gcWorkFutex) {
            return;
        }
    }

    _phase = GcPhase::Active;
    _collections += 1;
    _gcBeginTick = _sys.now();
    _scanBytes = std::max<std::uint64_t>(_heap.nurseryUsed(), 64);
    _inflateExtra =
        _faultPlan ? _faultPlan->gcExtraClusters(_sys.now()) : 0;

    // Partition the surviving bytes over the workers.
    auto live = static_cast<std::uint64_t>(
        _survivalRate * static_cast<double>(_heap.nurseryUsed()));
    std::uint64_t share = live / kGcThreads;
    for (std::uint32_t i = 0; i < kGcThreads; ++i)
        _workerRemaining[i] = share;
    _workerRemaining[0] += live - share * kGcThreads;

    _sys.recordPhaseEvent(os::SyncEventKind::GcBegin);
    _sys.futexWakeAll(_gcWorkFutex);
}

void
Runtime::finishCollection()
{
    DVFS_ASSERT(_phase == GcPhase::Active,
                "finishCollection outside a collection");
    _heap.resetNursery();
    _gcTime += _sys.now() - _gcBeginTick;
    _phase = GcPhase::Idle;
    _inflateExtra = 0;
    _sys.recordPhaseEvent(os::SyncEventKind::GcEnd);
    _sys.futexWakeAll(_gcStartFutex);
}

} // namespace dvfs::rt
