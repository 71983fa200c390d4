/**
 * @file
 * The simulated machine: cores + memory + OS, driven by the event
 * queue.
 *
 * The System executes thread programs action by action. Compute and
 * memory actions are timed by the core model; synchronization actions
 * go through user-space mutex/barrier objects that sleep and wake via
 * the futex table, producing the event trace the predictors consume.
 * Managed-runtime behaviour (allocation, GC) is plugged in through the
 * ActionInterceptor interface so the OS layer stays runtime-agnostic.
 */

#ifndef DVFS_OS_SYSTEM_HH
#define DVFS_OS_SYSTEM_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "os/action.hh"
#include "os/futex.hh"
#include "os/scheduler.hh"
#include "os/thread.hh"
#include "os/trace.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/sampling.hh"
#include "uarch/cache.hh"
#include "uarch/core.hh"
#include "uarch/dram.hh"
#include "uarch/fastpath.hh"
#include "uarch/freq_domain.hh"

namespace dvfs::fault {
class FaultPlan;
}

namespace dvfs::os {

/** Full machine configuration. */
struct SystemConfig {
    std::uint32_t cores = 4;
    uarch::CoreConfig core{};
    uarch::HierarchyConfig caches{};
    uarch::DramConfig dram{};

    /** Initial chip-wide core frequency. */
    Frequency coreFreq = Frequency::mhz(1000);
    /** Fixed uncore (shared L3) frequency, Table II. */
    Frequency uncoreFreq = Frequency::mhz(1500);

    /** Round-robin timeslice when threads outnumber cores. */
    Tick timeslice = 20 * kTicksPerUs;

    /**
     * Chip-wide stall on a DVFS transition. The paper models 2 us;
     * our default is scaled 1/100 with the rest of the time base.
     */
    Tick dvfsTransitionLatency = 20 * kTicksPerNs;

    /** Kernel instructions charged when a thread is scheduled in. */
    std::uint64_t ctxSwitchInstructions = 300;

    /** Deterministic seed for all thread RNG streams. */
    std::uint64_t seed = 42;
};

/**
 * Managed-runtime hook points.
 *
 * The runtime sees every thread just before it asks its program for
 * the next action (safepoint polls, deferred allocation continuations)
 * and owns the translation of Alloc actions.
 */
class ActionInterceptor
{
  public:
    virtual ~ActionInterceptor() = default;

    /**
     * Called before pulling the program's next action. A returned
     * action is executed first (the program is not consulted).
     */
    virtual std::optional<Action> interceptNext(Thread &t) = 0;

    /**
     * Translate an Alloc action into a machine action (zero-init
     * burst, or a park when a collection is required). Returning
     * nullopt makes the allocation free (no managed runtime).
     */
    virtual std::optional<Action> onAlloc(Thread &t,
                                          std::uint64_t bytes) = 0;
};

/** Outcome of System::run(). */
struct RunResult {
    Tick totalTime = 0;        ///< tick at which the main thread exited
    bool finished = false;     ///< main thread exited before the limit
    std::uint64_t events = 0;  ///< events executed
    bool aborted = false;      ///< a component requested an early stop
    std::string abortReason;   ///< why (watchdog diagnostic, ...)
};

/**
 * The machine.
 */
class System
{
  public:
    /** Hard cap on executed events (runaway guard). */
    static constexpr std::uint64_t kMaxEvents = 400'000'000ULL;

    explicit System(const SystemConfig &cfg);

    /// @name Construction-time setup
    /// @{

    /**
     * Create a thread.
     *
     * @param name    Debug name.
     * @param program Behaviour (ownership transferred).
     * @param service True for runtime service threads (GC workers);
     *                service threads do not gate stop-the-world
     *                quiescence and are excluded from "application"
     *                accounting.
     */
    ThreadId addThread(const std::string &name,
                       std::unique_ptr<ThreadProgram> program,
                       bool service = false);

    /** Create a mutex; returns its sync id. */
    SyncId createMutex();

    /** Create a barrier for @p parties threads; returns its sync id. */
    SyncId createBarrier(std::uint32_t parties);

    /** Create a raw futex (FutexWait/futexWake*). */
    SyncId createFutex();

    /** Thread whose exit terminates the run. */
    void setMainThread(ThreadId tid) { _mainThread = tid; }

    /** Install the managed-runtime hooks (at most one). */
    void setInterceptor(ActionInterceptor *icpt) { _interceptor = icpt; }

    /** Register a trace listener (predictor recorder, runtime, ...). */
    void addListener(SyncListener *l) { _listeners.push_back(l); }

    /**
     * Enable interval-sampled execution: detail windows run the full
     * cycle-accurate path (and fit the fast-path model), gaps charge
     * timed actions analytically in batched lumps. Call before run().
     * DVFS transitions are legal while sampling: setFrequency switches
     * the fast-path model to the new operating point (forking its eras
     * on first visit) and forces a detail window around the
     * transition, so energy-manager-governed runs sample soundly.
     */
    void enableSampling(const sim::SamplingConfig &cfg);
    /// @}

    /// @name Services for the runtime and the energy manager
    /// @{

    /** Wake up to @p n threads parked on @p f. */
    std::uint32_t futexWake(SyncId f, std::uint32_t n);

    /** Wake every thread parked on @p f. */
    std::uint32_t futexWakeAll(SyncId f);

    /**
     * Chip-wide DVFS transition: all cores stall for the transition
     * latency, then run at @p f. No-op if @p f is already set.
     */
    void setFrequency(Frequency f);

    /** Observe DVFS transitions (energy meter). */
    void addFrequencyObserver(std::function<void(Frequency, Tick)> fn);

    /** Emit a GC phase marker into the trace (GcBegin / GcEnd). */
    void recordPhaseEvent(SyncEventKind kind);

    /**
     * Install a fault plan (nullable). Covers the DVFS, preemption and
     * DRAM hook points; spurious-wake pumping is driven externally via
     * injectSpuriousWake (see fault::installFaults).
     */
    void setFaultPlan(fault::FaultPlan *plan);

    /** The installed fault plan, or nullptr. */
    fault::FaultPlan *faultPlan() const { return _faultPlan; }

    /**
     * Deliver a spurious wakeup to @p tid: the thread gets a brief
     * runnable episode and re-parks (user-space retry loop), keeping
     * its wait-queue entry so genuine wakes are never lost.
     *
     * @return false if the thread is not currently Blocked.
     */
    bool injectSpuriousWake(ThreadId tid);

    /**
     * Ask the run loop to stop before the next event (watchdog /
     * auditor escalation). The RunResult reports the reason.
     */
    void requestStop(std::string reason);

    /** True once a stop was requested. */
    bool stopRequested() const { return _stopRequested; }

    /** True once the main thread exited. */
    bool runEnded() const { return _runEnded; }
    /// @}

    /// @name Execution
    /// @{

    /**
     * Release all threads and run until the main thread exits (or
     * @p limit / the event cap is hit). May be called once.
     */
    RunResult run(Tick limit = kTickNever);
    /// @}

    /// @name Queries
    /// @{
    Tick now() const { return _eq.now(); }
    sim::EventQueue &eventQueue() { return _eq; }
    Frequency frequency() const { return _coreDomain.frequency(); }
    const uarch::FreqDomain &coreDomain() const { return _coreDomain; }
    const uarch::FreqDomain &uncoreDomain() const { return _uncoreDomain; }
    uarch::CacheHierarchy &memory() { return *_mem; }
    uarch::Dram &dram() { return _dram; }
    const SystemConfig &config() const { return _cfg; }

    std::size_t numThreads() const { return _threads.size(); }
    const Thread &thread(ThreadId tid) const { return *_threads.at(tid); }
    Thread &threadMut(ThreadId tid) { return *_threads.at(tid); }

    /** Sum of all threads' counters. */
    uarch::PerfCounters totalCounters() const;

    /** True if no non-service thread is Running or Ready. */
    bool appThreadsQuiescent() const;

    /** Number of live (not Finished) non-service threads. */
    std::uint32_t liveAppThreads() const;

    const Scheduler &scheduler() const { return _sched; }

    /** Sampling controller, or nullptr when running exact. */
    const sim::SamplingController *sampling() const
    {
        return _sampler.get();
    }

    /** Fast-path model, or nullptr when running exact. */
    const uarch::FastPathModel *fastPath() const
    {
        return _fastPath.get();
    }
    /// @}

  private:
    struct MutexObj {
        SyncId futex = kNoSync;
        bool held = false;
        ThreadId owner = kNoThread;
    };

    struct BarrierObj {
        SyncId futex = kNoSync;
        std::uint32_t parties = 0;
        std::uint32_t arrived = 0;
    };

    /** Emit a trace event to all listeners. */
    void emit(SyncEventKind kind, ThreadId tid, SyncId futex = kNoSync);

    /** Thread becomes runnable (spawn or wake); core fill is deferred. */
    void becomeReady(Thread &t, bool isWake);

    /** Idempotently schedule a core-fill pass at the current tick. */
    void requestFill();

    /** Assign ready threads to free cores. */
    void fillCores();

    /** Put @p t on core @p c and start its dispatch. */
    void schedIn(Thread &t, std::uint32_t c);

    /** Ask for and start the thread's next action. */
    void dispatch(Thread &t);

    /**
     * The thread's next action: the interceptor's, else the program's
     * with the lite-timing hint @p lite.
     */
    Action nextAction(Thread &t, bool lite);

    /** Execute one action for a running thread. */
    void execute(Thread &t, const Action &a);

    /** The cycle-accurate half of execute() (detail phase/fallback). */
    void executeDetailed(Thread &t, const Action &a);

    /**
     * Fast-forward batching: charge @p a and as many subsequent
     * actions as possible analytically, then schedule one lump-commit
     * event at the accumulated virtual time.
     */
    void executeFastForward(Thread &t, Action a);

    /**
     * Charge one action from the fast-path model at virtual time
     * @p vt. Returns false for actions that must execute exactly
     * (sync, exit, cold-model full-spec work).
     */
    bool chargeFastForward(Thread &t, const Action &a, Tick vt,
                           Tick &elapsed, uarch::PerfCounters &acc);

    /** Commit an in-flight fast-forward lump (event callback). */
    void commitFastForward(Thread &t);

    /** Commit deferred counters and continue the thread. */
    void finishTimedAction(Thread &t, Tick end,
                           const uarch::PerfCounters &delta);

    /** Action-boundary scheduling policy (timeslice round-robin). */
    void onActionDone(Thread &t);

    /** Thread parks on futex @p f (commits a pending sleep). */
    void parkCommit(Thread &t, SyncId f);

    /** Release the core @p t occupies. */
    void vacateCore(Thread &t);

    /** Terminal handling of an Exit action. */
    void finishThread(Thread &t);

    /** Per-action helpers. */
    void doMutexLock(Thread &t, SyncId m);
    void doMutexUnlock(Thread &t, SyncId m);
    void doBarrierWait(Thread &t, SyncId b);
    void doJoin(Thread &t, ThreadId target);

    Tick frozenStart(Tick t) const
    {
        return t < _frozenUntil ? _frozenUntil : t;
    }

    SystemConfig _cfg;
    sim::EventQueue _eq;
    uarch::FreqDomain _coreDomain;
    uarch::FreqDomain _uncoreDomain;
    uarch::Dram _dram;
    std::unique_ptr<uarch::CacheHierarchy> _mem;
    std::vector<std::unique_ptr<uarch::CoreModel>> _cores;
    Scheduler _sched;
    FutexTable _futexes;
    sim::Rng _rootRng;

    std::vector<std::unique_ptr<Thread>> _threads;
    std::unordered_map<SyncId, MutexObj> _mutexes;
    std::unordered_map<SyncId, BarrierObj> _barriers;
    /** Threads woken between futex enqueue and park commit. */
    std::vector<bool> _pendingWake;

    ActionInterceptor *_interceptor = nullptr;
    std::vector<SyncListener *> _listeners;
    std::vector<std::function<void(Frequency, Tick)>> _freqObservers;

    /**
     * Reusable buffer for futex wake lists, so the wake path performs
     * no allocation in steady state. Valid only within one wake call
     * chain; safe because nothing in becomeReady()/requestFill()
     * triggers a nested wake synchronously (fills are deferred to an
     * event).
     */
    std::vector<ThreadId> _wokenScratch;
    bool _wakeActive = false;  ///< guards _wokenScratch reentrancy

    ThreadId _mainThread = kNoThread;
    bool _runStarted = false;
    bool _runEnded = false;
    bool _fillPending = false;
    Tick _frozenUntil = 0;

    fault::FaultPlan *_faultPlan = nullptr;
    bool _stopRequested = false;
    std::string _stopReason;

    /** Sampled-mode machinery (both null when running exact). */
    std::unique_ptr<sim::SamplingController> _sampler;
    std::unique_ptr<uarch::FastPathModel> _fastPath;
};

} // namespace dvfs::os

#endif // DVFS_OS_SYSTEM_HH
