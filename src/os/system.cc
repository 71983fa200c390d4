#include "os/system.hh"

#include <algorithm>

#include "fault/fault_plan.hh"
#include "sim/log.hh"
#include "sim/profile.hh"

namespace dvfs::os {

const char *
actionKindName(ActionKind kind)
{
    switch (kind) {
      case ActionKind::Compute: return "Compute";
      case ActionKind::MissCluster: return "MissCluster";
      case ActionKind::StoreBurst: return "StoreBurst";
      case ActionKind::MutexLock: return "MutexLock";
      case ActionKind::MutexUnlock: return "MutexUnlock";
      case ActionKind::BarrierWait: return "BarrierWait";
      case ActionKind::FutexWait: return "FutexWait";
      case ActionKind::Alloc: return "Alloc";
      case ActionKind::Join: return "Join";
      case ActionKind::Exit: return "Exit";
    }
    return "?";
}

const char *
threadStateName(ThreadState s)
{
    switch (s) {
      case ThreadState::New: return "New";
      case ThreadState::Ready: return "Ready";
      case ThreadState::Running: return "Running";
      case ThreadState::Blocked: return "Blocked";
      case ThreadState::Finished: return "Finished";
    }
    return "?";
}

const char *
syncEventKindName(SyncEventKind kind)
{
    switch (kind) {
      case SyncEventKind::ThreadSpawn: return "ThreadSpawn";
      case SyncEventKind::ThreadExit: return "ThreadExit";
      case SyncEventKind::FutexWait: return "FutexWait";
      case SyncEventKind::FutexWake: return "FutexWake";
      case SyncEventKind::SchedIn: return "SchedIn";
      case SyncEventKind::SchedOut: return "SchedOut";
      case SyncEventKind::GcBegin: return "GcBegin";
      case SyncEventKind::GcEnd: return "GcEnd";
      case SyncEventKind::RunEnd: return "RunEnd";
    }
    return "?";
}

System::System(const SystemConfig &cfg)
    : _cfg(cfg),
      _coreDomain("core", cfg.coreFreq),
      _uncoreDomain("uncore", cfg.uncoreFreq),
      _dram(cfg.dram),
      _sched(cfg.cores),
      _rootRng(cfg.seed)
{
    _mem = std::make_unique<uarch::CacheHierarchy>(cfg.cores, cfg.caches,
                                                   _dram, _uncoreDomain);
    _cores.reserve(cfg.cores);
    for (std::uint32_t c = 0; c < cfg.cores; ++c) {
        _cores.push_back(std::make_unique<uarch::CoreModel>(
            c, cfg.core, *_mem, _coreDomain));
    }
}

ThreadId
System::addThread(const std::string &name,
                  std::unique_ptr<ThreadProgram> program, bool service)
{
    if (_runStarted)
        fatal("cannot add threads after the run started");
    auto tid = static_cast<ThreadId>(_threads.size());
    auto t = std::make_unique<Thread>(tid, name, std::move(program),
                                      service, _rootRng.split(tid + 1));
    t->exitFutex = _futexes.allocate();
    _threads.push_back(std::move(t));
    _pendingWake.push_back(false);
    return tid;
}

SyncId
System::createMutex()
{
    SyncId f = _futexes.allocate();
    _mutexes.emplace(f, MutexObj{f, false, kNoThread});
    return f;
}

SyncId
System::createBarrier(std::uint32_t parties)
{
    if (parties == 0)
        fatal("barrier needs at least one party");
    SyncId f = _futexes.allocate();
    _barriers.emplace(f, BarrierObj{f, parties, 0});
    return f;
}

SyncId
System::createFutex()
{
    return _futexes.allocate();
}

void
System::emit(SyncEventKind kind, ThreadId tid, SyncId futex)
{
    SyncEvent ev{_eq.now(), kind, tid, futex};
    for (auto *l : _listeners)
        l->onSyncEvent(ev, *this);
}

void
System::recordPhaseEvent(SyncEventKind kind)
{
    DVFS_ASSERT(kind == SyncEventKind::GcBegin ||
                kind == SyncEventKind::GcEnd,
                "recordPhaseEvent takes only GC phase markers");
    // Managed sampled runs observe every GC boundary in detail: the
    // collector's behaviour is what the manager's COOP signal keys on,
    // so it must never be synthesized from stale eras.
    if (_sampler && _sampler->config().forceDetailAtGc)
        _sampler->forceDetail();
    emit(kind, kNoThread, kNoSync);
}

void
System::addFrequencyObserver(std::function<void(Frequency, Tick)> fn)
{
    // Grow in explicit steps so registration from inside an observer
    // callback (mid-notification) never reallocates out from under
    // the iteration in setFrequency — which additionally walks by
    // index over a size snapshot, so a mid-notification registrant
    // starts observing with the *next* transition and misses none
    // after it.
    if (_freqObservers.size() == _freqObservers.capacity())
        _freqObservers.reserve(std::max<std::size_t>(
            8, _freqObservers.capacity() * 2));
    _freqObservers.push_back(std::move(fn));
}

void
System::setFaultPlan(fault::FaultPlan *plan)
{
    _faultPlan = plan;
    _dram.setFaultPlan(plan);
}

void
System::requestStop(std::string reason)
{
    if (_stopRequested)
        return;
    _stopRequested = true;
    _stopReason = std::move(reason);
}

void
System::enableSampling(const sim::SamplingConfig &cfg)
{
    if (_runStarted)
        fatal("enableSampling must be called before run()");
    if (_sampler)
        fatal("enableSampling called twice");
    _sampler = std::make_unique<sim::SamplingController>(_eq, cfg);
    _fastPath = std::make_unique<uarch::FastPathModel>(_cfg.cores);
    _fastPath->setOperatingPoint(_coreDomain.frequency().toMHz());
    _mem->enableWarmOverlay();
    // Each gap charges at the freshest detail window's rates: promote
    // the model's fitting windows at every detail -> gap boundary.
    _sampler->onFlip([this](sim::SamplePhase p) {
        if (p == sim::SamplePhase::FastForward)
            _fastPath->age();
    });
    // Adaptive placement keys off the model's fitted-term drift.
    _sampler->driftProbe(
        [this] { return _fastPath->lastDriftPermille(); });
}

void
System::setFrequency(Frequency f)
{
    if (!f.valid())
        fatal("setFrequency: invalid frequency");
    if (f == _coreDomain.frequency())
        return;
    Tick stall = _cfg.dvfsTransitionLatency;
    if (_faultPlan) {
        // The PCU may drop the request entirely, or take longer than
        // the documented transition latency.
        if (_faultPlan->dvfsReject(_eq.now()))
            return;
        stall += _faultPlan->dvfsExtraDelay(_eq.now());
    }
    if (_sampler) {
        // The fitted eras are valid only at the frequency they were
        // observed at: switch the model to the new operating point
        // (warm-forking its eras from the old one on first visit) and
        // force a detail window so the point refits from real
        // execution. In-flight fast-forward lumps commit with the old
        // timing, matching the "in-flight work completes" semantics
        // of the transition stall below.
        _fastPath->setOperatingPoint(f.toMHz());
        _sampler->noteTransition();
    }
    // All in-flight work completes with the old timing; newly
    // dispatched work waits out the chip-wide transition stall.
    _frozenUntil = std::max(_frozenUntil, _eq.now() + stall);
    // Index loop over a size snapshot: an observer registered during
    // notification must not invalidate this walk (and sees only
    // subsequent transitions).
    const std::size_t n_obs = _freqObservers.size();
    for (std::size_t i = 0; i < n_obs; ++i)
        _freqObservers[i](f, _eq.now());
    _coreDomain.setFrequency(f, _eq.now());
}

std::uint32_t
System::futexWake(SyncId f, std::uint32_t n)
{
    DVFS_ASSERT(!_wakeActive,
                "reentrant futexWake would clobber the wake scratch");
    _wakeActive = true;
    auto &woken = _wokenScratch;
    _futexes.wake(f, n, woken);
    for (ThreadId tid : woken) {
        Thread &w = *_threads[tid];
        if (w.state == ThreadState::Blocked) {
            becomeReady(w, true);
        } else {
            // The waiter has not committed its sleep yet; its
            // park will turn into an immediate continue.
            _pendingWake[tid] = true;
        }
    }
    _wakeActive = false;
    return static_cast<std::uint32_t>(woken.size());
}

std::uint32_t
System::futexWakeAll(SyncId f)
{
    return futexWake(f, std::numeric_limits<std::uint32_t>::max());
}

void
System::becomeReady(Thread &t, bool isWake)
{
    emit(isWake ? SyncEventKind::FutexWake : SyncEventKind::ThreadSpawn,
         t.id, isWake ? t.blockedOn : kNoSync);
    t.state = ThreadState::Ready;
    t.blockedOn = kNoSync;
    _sched.enqueueReady(t.id);
    requestFill();
}

void
System::requestFill()
{
    if (_fillPending || _runEnded)
        return;
    _fillPending = true;
    _eq.schedule(_eq.now(), [this] {
        _fillPending = false;
        fillCores();
    });
}

void
System::fillCores()
{
    while (_sched.hasReady()) {
        std::int32_t c = _sched.freeCore();
        if (c < 0)
            return;
        ThreadId tid = _sched.popReady();
        schedIn(*_threads[tid], static_cast<std::uint32_t>(c));
    }
}

void
System::schedIn(Thread &t, std::uint32_t c)
{
    DVFS_ASSERT(t.state == ThreadState::Ready, "schedIn of non-ready thread");
    _sched.assign(t.id, c);
    t.state = ThreadState::Running;
    t.core = static_cast<std::int32_t>(c);
    t.sliceStart = _eq.now();
    if (t.firstRunTick == kTickNever)
        t.firstRunTick = _eq.now();
    emit(SyncEventKind::SchedIn, t.id);

    // Context-switch cost: kernel instructions charged to the
    // incoming thread, scaling with frequency like any other code.
    uarch::ComputeSpec cs{_cfg.ctxSwitchInstructions, 0, 0, 1.0};
    uarch::PerfCounters tmp;
    Tick end = _cores[c]->executeCompute(cs, frozenStart(_eq.now()), tmp);
    Thread *tp = &t;
    _eq.schedule(end, [this, tp, tmp] {
        tp->counters += tmp;
        dispatch(*tp);
    });
}

void
System::dispatch(Thread &t)
{
    DVFS_PROFILE_SCOPE(Os);
    if (_runEnded)
        return;
    DVFS_ASSERT(t.state == ThreadState::Running,
                "dispatch of non-running thread");

    // Retry loop after a spurious wakeup: re-park on the same futex
    // without consulting the program. If a genuine wake raced with the
    // retry window, parkCommit's pendingWake check turns this into an
    // immediate continue.
    if (t.retryFutex != kNoSync) {
        SyncId f = t.retryFutex;
        t.retryFutex = kNoSync;
        parkCommit(t, f);
        return;
    }

    execute(t, nextAction(t, _sampler && _sampler->fastForward()));
}

Action
System::nextAction(Thread &t, bool lite)
{
    if (_interceptor) {
        if (std::optional<Action> a = _interceptor->interceptNext(t))
            return *a;
    }
    ThreadContext ctx{t.id, t.rng, lite};
    DVFS_PROFILE_SCOPE(Wl);
    return t.program->next(ctx);
}

void
System::execute(Thread &t, const Action &a)
{
    if (_sampler && _sampler->fastForward()) {
        switch (a.kind) {
          case ActionKind::Compute:
          case ActionKind::MissCluster:
          case ActionKind::StoreBurst:
          case ActionKind::Alloc:
            executeFastForward(t, a);
            return;
          default:
            break;
        }
    }
    executeDetailed(t, a);
}

void
System::executeDetailed(Thread &t, const Action &a)
{
    DVFS_PROFILE_SCOPE(Os);
    DVFS_ASSERT(t.core >= 0, "executing on no core");
    uarch::CoreModel &core = *_cores[static_cast<std::uint32_t>(t.core)];
    const Tick start = frozenStart(_eq.now());
    Thread *tp = &t;

    switch (a.kind) {
      case ActionKind::Compute: {
        uarch::PerfCounters tmp;
        Tick end = core.executeCompute(a.compute, start, tmp);
        if (_sampler)
            _sampler->stats().detailActions += 1;
        _eq.schedule(end, [this, tp, end, tmp] {
            finishTimedAction(*tp, end, tmp);
        });
        break;
      }
      case ActionKind::MissCluster: {
        uarch::PerfCounters tmp;
        Tick end = core.executeCluster(a.cluster, start, tmp);
        if (_fastPath) {
            _fastPath->observeCluster(a.cluster, _sched.busyCores(),
                                      end - start, tmp);
            _sampler->stats().detailActions += 1;
        }
        _eq.schedule(end, [this, tp, end, tmp] {
            finishTimedAction(*tp, end, tmp);
        });
        break;
      }
      case ActionKind::StoreBurst: {
        uarch::PerfCounters tmp;
        Tick end = core.executeStoreBurst(a.burst, start, tmp);
        if (_fastPath) {
            _fastPath->observeBurst(a.burst, _sched.busyCores(),
                                    end - start, tmp);
            _sampler->stats().detailActions += 1;
        }
        _eq.schedule(end, [this, tp, end, tmp] {
            finishTimedAction(*tp, end, tmp);
        });
        break;
      }
      case ActionKind::MutexLock:
        doMutexLock(t, a.sync);
        break;
      case ActionKind::MutexUnlock:
        doMutexUnlock(t, a.sync);
        break;
      case ActionKind::BarrierWait:
        doBarrierWait(t, a.sync);
        break;
      case ActionKind::FutexWait:
        _futexes.wait(a.sync, t.id);
        parkCommit(t, a.sync);
        break;
      case ActionKind::Alloc: {
        std::optional<Action> repl;
        if (_interceptor)
            repl = _interceptor->onAlloc(t, a.allocBytes);
        if (repl) {
            execute(t, *repl);
        } else {
            // No managed runtime attached: allocation is free.
            onActionDone(t);
        }
        break;
      }
      case ActionKind::Join:
        doJoin(t, a.joinTarget);
        break;
      case ActionKind::Exit:
        finishThread(t);
        break;
    }
}

void
System::executeFastForward(Thread &t, Action a)
{
    DVFS_PROFILE_SCOPE(Os);
    DVFS_ASSERT(t.core >= 0, "executing on no core");
    const Tick lumpStart = frozenStart(_eq.now());
    // Lumps are capped at one timeslice of virtual time so scheduling
    // decisions, safepoint polls and stop-the-world quiescence are
    // delayed by at most the quantum exact mode already allows a
    // thread to run unpreempted.
    const Tick cap = lumpStart + _cfg.timeslice;
    const Tick ffEnd = _sampler->phaseEnd();
    sim::SampleStats &stats = _sampler->stats();

    Tick vt = lumpStart;
    uarch::PerfCounters acc;
    std::optional<Action> tail;
    std::uint64_t charged = 0;

    while (true) {
        if (a.kind == ActionKind::Alloc) {
            // The allocator is time-blind, so allocation folds into
            // the lump: a zero-init replacement is charged like any
            // other action; a GC park replacement terminates the lump
            // below as a non-chargeable action.
            std::optional<Action> repl;
            if (_interceptor)
                repl = _interceptor->onAlloc(t, a.allocBytes);
            if (repl) {
                a = *repl;
                continue;
            }
            // No managed runtime: allocation is free; pull the next
            // action.
        } else {
            Tick elapsed = 0;
            if (!chargeFastForward(t, a, vt, elapsed, acc)) {
                tail = a;
                break;
            }
            vt += elapsed;
            charged += 1;
            stats.ffActions += 1;
            // The action cap keeps the run's event cap meaningful for
            // pathological programs whose actions take zero time.
            if (vt >= cap || vt >= ffEnd || charged >= 1u << 16)
                break;
        }
        // Pull the next action exactly as dispatch() would, with the
        // lite-timing hint raised.
        a = nextAction(t, true);
    }

    if (charged == 0 && tail) {
        // The first action was not chargeable (cold model or a
        // non-timed action): nothing accumulated, run it exactly.
        // Never a lite spec — lite work is always chargeable (naive
        // fallback), so a tail is either sync/exit or a full spec.
        executeDetailed(t, *tail);
        return;
    }

    stats.ffCommits += 1;
    t.ffAccum = acc;
    t.ffPending = tail;
    Thread *tp = &t;
    _eq.schedule(vt, [this, tp] { commitFastForward(*tp); });
}

bool
System::chargeFastForward(Thread &t, const Action &a, Tick vt,
                          Tick &elapsed, uarch::PerfCounters &acc)
{
    uarch::CoreModel &core = *_cores[static_cast<std::uint32_t>(t.core)];
    switch (a.kind) {
      case ActionKind::Compute:
        // Already O(1) analytic and exact at any frequency.
        elapsed = core.executeCompute(a.compute, vt, acc) - vt;
        return true;

      case ActionKind::MissCluster: {
        if (_fastPath->chargeCluster(a.cluster, _sched.busyCores(),
                                     elapsed, acc)) {
            return true;
        }
        if (!a.cluster.lite())
            return false;
        // Cold model on an address-free spec: coarse deterministic
        // estimate (loads charged as shared-cache hits), surfaced in
        // the stats as a fallback.
        uarch::ComputeSpec naive{a.cluster.overlapInstructions, 0,
                                 a.cluster.loadCount(), 1.0};
        elapsed = core.executeCompute(naive, vt, acc) - vt;
        acc.missClusters += 1;
        _sampler->stats().ffFallbacks += 1;
        return true;
      }

      case ActionKind::StoreBurst: {
        // The burst's cache side effects are load-bearing — GC trace
        // speed depends on freshly zeroed nursery lines being
        // resident — but per-line tag walks dominate the whole
        // simulator's wall time. Charge the timing from the fitted
        // model and record the footprint in the hierarchy's warm
        // overlay, which answers later misses to these lines at L3
        // speed without ever having walked them.
        if (!_fastPath->chargeBurst(a.burst, _sched.busyCores(), elapsed,
                                    acc)) {
            return false;  // cold shape: the detailed tail warms it
        }
        _mem->warmLines(a.burst.baseAddr, a.burst.lines);
        return true;
      }

      default:
        return false;
    }
}

void
System::commitFastForward(Thread &t)
{
    if (_runEnded)
        return;
    if (t.state != ThreadState::Running)
        panic("thread %u ('%s') committing a fast-forward lump while %s",
              t.id, t.name.c_str(), threadStateName(t.state));
    t.counters += t.ffAccum;
    t.ffAccum = uarch::PerfCounters{};
    if (t.ffPending) {
        Action tail = *t.ffPending;
        t.ffPending.reset();
        // Re-enters execute(): a sync tail runs its exact path, a
        // cold-model timed tail either starts the next lump (model
        // warmed meanwhile) or falls back to detailed execution.
        execute(t, tail);
        return;
    }
    onActionDone(t);
}

void
System::finishTimedAction(Thread &t, Tick end, const uarch::PerfCounters &d)
{
    DVFS_ASSERT(_eq.now() == end, "timed action finishing at wrong tick");
    t.counters += d;
    onActionDone(t);
}

void
System::onActionDone(Thread &t)
{
    if (_runEnded)
        return;
    if (t.state != ThreadState::Running)
        panic("thread %u ('%s') finished an action while %s", t.id,
              t.name.c_str(), threadStateName(t.state));

    // Round-robin: yield the core at action boundaries once the
    // timeslice is exhausted and someone is waiting. An installed
    // fault plan may also preempt off-schedule (kernel jitter).
    const bool forced = _faultPlan && _faultPlan->preemptNow(_eq.now());
    if (forced ||
        (_sched.hasReady() && _eq.now() - t.sliceStart >= _cfg.timeslice)) {
        emit(SyncEventKind::SchedOut, t.id);
        t.state = ThreadState::Ready;
        vacateCore(t);
        _sched.enqueueReady(t.id);
        return;
    }
    dispatch(t);
}

void
System::parkCommit(Thread &t, SyncId f)
{
    if (_pendingWake[t.id]) {
        // A wake raced with the sleep: the futex_wait returns
        // immediately (kernel-side value check), no sleep happens.
        _pendingWake[t.id] = false;
        onActionDone(t);
        return;
    }
    t.blockedOn = f;
    emit(SyncEventKind::FutexWait, t.id, f);
    t.state = ThreadState::Blocked;
    t.blockedSince = _eq.now();
    vacateCore(t);
}

bool
System::injectSpuriousWake(ThreadId tid)
{
    if (tid >= _threads.size() || _runEnded)
        return false;
    Thread &t = *_threads[tid];
    if (t.state != ThreadState::Blocked || t.retryFutex != kNoSync)
        return false;
    // The kernel lets the waiter through without a signal; the
    // user-space retry loop re-checks and re-parks (see dispatch()).
    // The wait-queue entry is kept so a genuine wake during the retry
    // window is delivered through the pendingWake path.
    SyncId f = t.blockedOn;
    emit(SyncEventKind::FutexWake, t.id, f);
    t.state = ThreadState::Ready;
    t.blockedOn = kNoSync;
    t.retryFutex = f;
    _sched.enqueueReady(t.id);
    requestFill();
    return true;
}

void
System::vacateCore(Thread &t)
{
    DVFS_ASSERT(t.core >= 0, "vacating with no core");
    _sched.release(static_cast<std::uint32_t>(t.core));
    t.core = -1;
    requestFill();
}

void
System::finishThread(Thread &t)
{
    emit(SyncEventKind::ThreadExit, t.id);
    t.state = ThreadState::Finished;
    t.exitTick = _eq.now();
    vacateCore(t);
    futexWakeAll(t.exitFutex);
    if (t.id == _mainThread) {
        emit(SyncEventKind::RunEnd, kNoThread);
        _runEnded = true;
    }
}

void
System::doMutexLock(Thread &t, SyncId m)
{
    auto it = _mutexes.find(m);
    if (it == _mutexes.end())
        fatal("MutexLock on unknown mutex %u", m);
    MutexObj &mu = it->second;
    uarch::CoreModel &core = *_cores[static_cast<std::uint32_t>(t.core)];
    Thread *tp = &t;

    const bool contended = mu.held;
    uarch::PerfCounters tmp;
    Tick end = core.atomicRmw(frozenStart(_eq.now()), contended, tmp);

    if (!contended) {
        mu.held = true;
        mu.owner = t.id;
        _eq.schedule(end, [this, tp, end, tmp] {
            finishTimedAction(*tp, end, tmp);
        });
        return;
    }

    // Contended: queue on the futex now (so an unlock between now and
    // the sleep commit finds us), pay the failed-CAS cost, then sleep.
    _futexes.wait(mu.futex, t.id);
    MutexObj *mup = &mu;
    _eq.schedule(end, [this, tp, mup, tmp] {
        tp->counters += tmp;
        parkCommit(*tp, mup->futex);
    });
}

void
System::doMutexUnlock(Thread &t, SyncId m)
{
    auto it = _mutexes.find(m);
    if (it == _mutexes.end())
        fatal("MutexUnlock on unknown mutex %u", m);
    MutexObj &mu = it->second;
    if (!mu.held || mu.owner != t.id)
        panic("thread %u unlocking mutex %u it does not own", t.id, m);

    uarch::CoreModel &core = *_cores[static_cast<std::uint32_t>(t.core)];
    uarch::PerfCounters tmp;
    Tick end = core.atomicRmw(frozenStart(_eq.now()), false, tmp);
    Thread *tp = &t;
    MutexObj *mup = &mu;
    _eq.schedule(end, [this, tp, mup, end, tmp] {
        auto &woken = _wokenScratch;
        _futexes.wake(mup->futex, 1, woken);
        if (!woken.empty()) {
            // Direct handoff: ownership passes to the woken waiter.
            mup->owner = woken[0];
            Thread &w = *_threads[woken[0]];
            if (w.state == ThreadState::Blocked)
                becomeReady(w, true);
            else
                _pendingWake[w.id] = true;
        } else {
            mup->held = false;
            mup->owner = kNoThread;
        }
        finishTimedAction(*tp, end, tmp);
    });
}

void
System::doBarrierWait(Thread &t, SyncId b)
{
    auto it = _barriers.find(b);
    if (it == _barriers.end())
        fatal("BarrierWait on unknown barrier %u", b);
    BarrierObj &bar = it->second;
    uarch::CoreModel &core = *_cores[static_cast<std::uint32_t>(t.core)];
    Thread *tp = &t;

    uarch::PerfCounters tmp;
    Tick end = core.atomicRmw(frozenStart(_eq.now()), bar.parties > 1, tmp);

    bar.arrived += 1;
    if (bar.arrived == bar.parties) {
        // Last arrival releases everyone.
        bar.arrived = 0;
        BarrierObj *bp = &bar;
        _eq.schedule(end, [this, tp, bp, end, tmp] {
            futexWakeAll(bp->futex);
            finishTimedAction(*tp, end, tmp);
        });
        return;
    }

    _futexes.wait(bar.futex, t.id);
    BarrierObj *bp = &bar;
    _eq.schedule(end, [this, tp, bp, tmp] {
        tp->counters += tmp;
        parkCommit(*tp, bp->futex);
    });
}

void
System::doJoin(Thread &t, ThreadId target)
{
    if (target >= _threads.size())
        fatal("Join on unknown thread %u", target);
    Thread &tgt = *_threads[target];
    if (tgt.finished()) {
        onActionDone(t);
        return;
    }
    _futexes.wait(tgt.exitFutex, t.id);
    parkCommit(t, tgt.exitFutex);
}

uarch::PerfCounters
System::totalCounters() const
{
    uarch::PerfCounters sum;
    for (const auto &t : _threads)
        sum += t->counters;
    return sum;
}

bool
System::appThreadsQuiescent() const
{
    for (const auto &t : _threads) {
        if (t->service)
            continue;
        if (t->state == ThreadState::Running ||
            t->state == ThreadState::Ready) {
            return false;
        }
    }
    return true;
}

std::uint32_t
System::liveAppThreads() const
{
    std::uint32_t n = 0;
    for (const auto &t : _threads) {
        if (!t->service && !t->finished())
            ++n;
    }
    return n;
}

RunResult
System::run(Tick limit)
{
    if (_runStarted)
        fatal("System::run may be called only once");
    if (_threads.empty())
        fatal("System::run with no threads");
    if (_mainThread == kNoThread)
        fatal("System::run without a main thread");
    _runStarted = true;

    if (_sampler)
        _sampler->start();

    for (auto &t : _threads) {
        t->spawnTick = _eq.now();
        becomeReady(*t, false);
    }

    while (!_runEnded) {
        if (_eq.executed() > kMaxEvents)
            panic("event cap exceeded (%llu events) — runaway simulation?",
                  static_cast<unsigned long long>(kMaxEvents));
        if (_stopRequested)
            break;
        if (limit != kTickNever && _eq.now() >= limit)
            break;
        if (!_eq.runOne())
            break;
    }

    RunResult res;
    res.finished = _runEnded;
    res.events = _eq.executed();
    res.aborted = _stopRequested;
    res.abortReason = _stopReason;
    const Thread &main = *_threads[_mainThread];
    res.totalTime = main.exitTick != kTickNever ? main.exitTick : _eq.now();
    if (_stopRequested) {
        warn("run stopped early: %s", _stopReason.c_str());
    } else if (!_runEnded) {
        warn("run ended without main thread exit (deadlock or limit); "
             "%zu threads blocked", _futexes.totalWaiters());
    }
    return res;
}

} // namespace dvfs::os
