/**
 * @file
 * Integration tests for the machine: scheduling, synchronization,
 * trace emission, counters, DVFS transitions.
 */

#include <gtest/gtest.h>

#include "sim/log.hh"
#include "test_util.hh"

using namespace dvfs;
using namespace dvfs::os;
using namespace dvfs::test;

namespace {

SystemConfig
smallConfig(std::uint32_t cores = 2)
{
    SystemConfig cfg;
    cfg.cores = cores;
    cfg.coreFreq = Frequency::ghz(1.0);
    return cfg;
}

} // namespace

TEST(System, SingleThreadRunsToExit)
{
    System sys(smallConfig(1));
    ThreadId t = addScript(sys, "main",
                           {Action::makeCompute(10000),
                            Action::makeCompute(5000)});
    sys.setMainThread(t);
    auto res = sys.run();
    EXPECT_TRUE(res.finished);
    // 15000 instructions at IPC 2 at 1 GHz plus context switch.
    Tick work = Frequency::ghz(1.0).cyclesToTicks(15000 / 2.0);
    EXPECT_GE(res.totalTime, work);
    EXPECT_LT(res.totalTime, work + kTicksPerUs);
    EXPECT_EQ(sys.thread(t).state, ThreadState::Finished);
}

TEST(System, CountersChargeTheRunningThread)
{
    System sys(smallConfig(1));
    ThreadId t = addScript(sys, "main", {Action::makeCompute(20000)});
    sys.setMainThread(t);
    sys.run();
    const auto &pc = sys.thread(t).counters;
    EXPECT_EQ(pc.instructions,
              20000u + System::kCtxSwitchInstructions);
    EXPECT_GT(pc.busyTime, 0u);
}

TEST(System, MutexProvidesMutualExclusion)
{
    System sys(smallConfig(2));
    SyncId m = sys.createMutex();

    // Two threads increment a shared "in critical section" flag; the
    // flag is checked via lock-step scripts: if exclusion failed, the
    // second locker would not have waited and total time would be
    // shorter than serial execution of the critical sections.
    std::vector<Action> script = {
        Action::makeMutexLock(m),
        Action::makeCompute(400'000),  // 200 us at 1 GHz
        Action::makeMutexUnlock(m),
    };
    ThreadId a = addScript(sys, "a", script);
    ThreadId b = addScript(sys, "b", script);
    ThreadId main = addScript(sys, "main",
                              {Action::makeJoin(a), Action::makeJoin(b)});
    sys.setMainThread(main);
    auto res = sys.run();
    // Critical sections must serialize: >= 400 us total.
    EXPECT_GE(res.totalTime, 2 * Frequency::ghz(1.0).cyclesToTicks(200'000));
}

TEST(System, MutexHandoffWakesFifo)
{
    System sys(smallConfig(4));
    SyncId m = sys.createMutex();
    TraceCollector trace;
    sys.addListener(&trace);

    std::vector<Action> script = {
        Action::makeMutexLock(m),
        Action::makeCompute(100'000),
        Action::makeMutexUnlock(m),
    };
    ThreadId a = addScript(sys, "a", script);
    ThreadId b = addScript(sys, "b", script);
    ThreadId c = addScript(sys, "c", script);
    ThreadId main = addScript(sys, "main",
                              {Action::makeJoin(a), Action::makeJoin(b),
                               Action::makeJoin(c)});
    sys.setMainThread(main);
    EXPECT_TRUE(sys.run().finished);
    // At least two threads blocked on the mutex and were woken.
    EXPECT_GE(trace.count(SyncEventKind::FutexWait), 2u);
    EXPECT_GE(trace.count(SyncEventKind::FutexWake), 2u);
}

TEST(System, BarrierReleasesAllAtOnce)
{
    System sys(smallConfig(4));
    SyncId bar = sys.createBarrier(3);
    TraceCollector trace;
    sys.addListener(&trace);

    auto script = [&](std::uint64_t pre) {
        return std::vector<Action>{Action::makeCompute(pre),
                                   Action::makeBarrierWait(bar),
                                   Action::makeCompute(1000)};
    };
    ThreadId a = addScript(sys, "a", script(1000));
    ThreadId b = addScript(sys, "b", script(400'000));
    ThreadId c = addScript(sys, "c", script(800'000));
    ThreadId main = addScript(sys, "main",
                              {Action::makeJoin(a), Action::makeJoin(b),
                               Action::makeJoin(c)});
    sys.setMainThread(main);
    auto res = sys.run();
    EXPECT_TRUE(res.finished);
    // a and b sleep at the barrier; c releases everyone.
    EXPECT_EQ(trace.count(SyncEventKind::FutexWait), 2u + 1u);  // +main join
    // Everyone finishes shortly after the slowest pre-barrier work.
    Tick slowest = Frequency::ghz(1.0).cyclesToTicks(400'000);
    EXPECT_GE(res.totalTime, slowest);
}

TEST(System, BarrierIsReusableAcrossGenerations)
{
    System sys(smallConfig(2));
    SyncId bar = sys.createBarrier(2);
    std::vector<Action> script;
    for (int i = 0; i < 5; ++i) {
        script.push_back(Action::makeCompute(10'000));
        script.push_back(Action::makeBarrierWait(bar));
    }
    ThreadId a = addScript(sys, "a", script);
    ThreadId b = addScript(sys, "b", script);
    ThreadId main = addScript(sys, "main",
                              {Action::makeJoin(a), Action::makeJoin(b)});
    sys.setMainThread(main);
    EXPECT_TRUE(sys.run().finished);
}

TEST(System, JoinOnFinishedThreadDoesNotBlock)
{
    System sys(smallConfig(2));
    ThreadId a = addScript(sys, "a", {Action::makeCompute(100)});
    ThreadId main = addScript(sys, "main",
                              {Action::makeCompute(4'000'000),
                               Action::makeJoin(a)});
    sys.setMainThread(main);
    EXPECT_TRUE(sys.run().finished);
}

TEST(System, TimesliceRoundRobinRunsEveryone)
{
    // 4 CPU-hungry threads on 1 core must all finish, with SchedOut
    // preemptions in the trace.
    System sys(smallConfig(1));
    TraceCollector trace;
    sys.addListener(&trace);

    std::vector<ThreadId> workers;
    for (int i = 0; i < 4; ++i) {
        std::vector<Action> script(20, Action::makeCompute(20'000));
        workers.push_back(addScript(sys, strprintf("w%d", i), script));
    }
    std::vector<Action> joins;
    for (ThreadId w : workers)
        joins.push_back(Action::makeJoin(w));
    ThreadId main = addScript(sys, "main", joins);
    sys.setMainThread(main);

    auto res = sys.run();
    EXPECT_TRUE(res.finished);
    EXPECT_GT(trace.count(SyncEventKind::SchedOut), 0u);
    for (ThreadId w : workers)
        EXPECT_TRUE(sys.thread(w).finished());
}

TEST(System, FutexWakeBeforeSleepIsNotLost)
{
    // Thread A parks on a futex; thread B wakes it. Even when the
    // wake lands while A is between queueing and sleeping, A must not
    // sleep forever.
    System sys(smallConfig(2));
    SyncId f = sys.createFutex();
    ThreadId a = addScript(sys, "a", {Action::makeFutexWait(f),
                                      Action::makeCompute(1000)});
    ThreadId b = sys.addThread(
        "b", std::make_unique<LambdaProgram>(
                 [&sys, f, step = 0](ThreadContext &) mutable -> Action {
                     if (step++ == 0) {
                         // Runs strictly after A parked (A spawns
                         // first and parks with zero cost).
                         sys.futexWakeAll(f);
                         return Action::makeCompute(1000);
                     }
                     return Action::makeExit();
                 }));
    ThreadId main = addScript(sys, "main",
                              {Action::makeJoin(a), Action::makeJoin(b)});
    sys.setMainThread(main);
    EXPECT_TRUE(sys.run().finished);
}

TEST(System, TraceEventsAreTimeOrdered)
{
    System sys(smallConfig(2));
    SyncId m = sys.createMutex();
    TraceCollector trace;
    sys.addListener(&trace);
    std::vector<Action> script = {Action::makeMutexLock(m),
                                  Action::makeCompute(50'000),
                                  Action::makeMutexUnlock(m)};
    ThreadId a = addScript(sys, "a", script);
    ThreadId main = addScript(sys, "main", {Action::makeJoin(a)});
    sys.setMainThread(main);
    sys.run();
    for (std::size_t i = 1; i < trace.events.size(); ++i)
        EXPECT_GE(trace.events[i].tick, trace.events[i - 1].tick);
    // The trace ends with RunEnd.
    ASSERT_FALSE(trace.events.empty());
    EXPECT_EQ(trace.events.back().kind, SyncEventKind::RunEnd);
}

TEST(System, DvfsTransitionStallsDispatch)
{
    System sys(smallConfig(1));
    ThreadId main = sys.addThread(
        "main", std::make_unique<LambdaProgram>(
                    [&sys, step = 0](ThreadContext &) mutable -> Action {
                        switch (step++) {
                          case 0:
                            return Action::makeCompute(2000);
                          case 1:
                            sys.setFrequency(Frequency::ghz(2.0));
                            return Action::makeCompute(2000);
                          default:
                            return Action::makeExit();
                        }
                    }));
    sys.setMainThread(main);
    auto res = sys.run();
    // Scheduling in and the first chunk run at 1 GHz; the second chunk
    // waits out the transition stall, then runs at 2 GHz (IPC 2).
    const Frequency f1 = Frequency::ghz(1.0);
    const Frequency f2 = Frequency::ghz(2.0);
    EXPECT_EQ(res.totalTime,
              f1.cyclesToTicks(System::kCtxSwitchInstructions / 2.0) +
                  f1.cyclesToTicks(2000 / 2.0) +
                  System::kDvfsTransitionLatency +
                  f2.cyclesToTicks(2000 / 2.0));
    EXPECT_EQ(sys.frequency(), f2);
}

TEST(System, FrequencyObserverSeesTransition)
{
    System sys(smallConfig(1));
    std::vector<std::pair<std::uint32_t, Tick>> seen;
    sys.addFrequencyObserver([&](Frequency f, Tick t) {
        seen.emplace_back(f.toMHz(), t);
    });
    ThreadId main = sys.addThread(
        "main", std::make_unique<LambdaProgram>(
                    [&sys, step = 0](ThreadContext &) mutable -> Action {
                        if (step++ == 0) {
                            sys.setFrequency(Frequency::ghz(3.0));
                            sys.setFrequency(Frequency::ghz(3.0));  // no-op
                            return Action::makeCompute(1000);
                        }
                        return Action::makeExit();
                    }));
    sys.setMainThread(main);
    sys.run();
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(seen[0].first, 3000u);
    EXPECT_EQ(sys.coreDomain().transitions(), 1u);
}

namespace {

/** Run a main thread that steps the chip through 2, 3 and 4 GHz. */
void
runFrequencySteps(System &sys)
{
    ThreadId main = sys.addThread(
        "main", std::make_unique<LambdaProgram>(
                    [&sys, step = 0](ThreadContext &) mutable -> Action {
                        switch (step++) {
                          case 0:
                            sys.setFrequency(Frequency::ghz(2.0));
                            return Action::makeCompute(1000);
                          case 1:
                            sys.setFrequency(Frequency::ghz(3.0));
                            return Action::makeCompute(1000);
                          case 2:
                            sys.setFrequency(Frequency::ghz(4.0));
                            return Action::makeCompute(1000);
                          default:
                            return Action::makeExit();
                        }
                    }));
    sys.setMainThread(main);
    EXPECT_TRUE(sys.run().finished);
}

} // namespace

/**
 * Registering an observer from inside another observer's notification
 * (i.e. mid-run, while the observer list is being walked) must be
 * safe, and the new observer must see every subsequent transition.
 */
TEST(System, ObserverRegisteredMidRunSeesLaterTransitions)
{
    System sys(smallConfig(1));
    std::vector<std::uint32_t> late_seen;
    bool registered = false;
    for (int i = 0; i < 3; ++i)
        sys.addFrequencyObserver([](Frequency, Tick) {});
    sys.addFrequencyObserver([&](Frequency, Tick) {
        if (registered)
            return;
        registered = true;
        sys.addFrequencyObserver([&](Frequency f, Tick) {
            late_seen.push_back(f.toMHz());
        });
    });
    runFrequencySteps(sys);
    // Registered during the 2 GHz notification: sees every transition
    // after that one, and none twice.
    EXPECT_EQ(late_seen, (std::vector<std::uint32_t>{3000u, 4000u}));
}

/**
 * The registering observer is the eighth of eight, so the registration
 * grows a full list, and it reads its own capture after registering:
 * an observer list that moved its elements on growth would free the
 * running observer out from under setFrequency (a use-after-free under
 * ASan).
 */
TEST(System, ObserverRegisteredFromFullListKeepsItsCapture)
{
    System sys(smallConfig(1));
    struct Probe {
        System *sys;
        std::vector<std::uint32_t> lateSeen;
        std::uint32_t notified = 0;
    } probe{&sys, {}};
    for (int i = 0; i < 7; ++i)
        sys.addFrequencyObserver([](Frequency, Tick) {});
    sys.addFrequencyObserver([p = &probe](Frequency, Tick) {
        if (p->notified == 0) {
            p->sys->addFrequencyObserver([p](Frequency f, Tick) {
                p->lateSeen.push_back(f.toMHz());
            });
        }
        p->notified += 1;  // reads the capture after the registration
    });
    runFrequencySteps(sys);
    EXPECT_EQ(probe.notified, 3u);
    EXPECT_EQ(probe.lateSeen, (std::vector<std::uint32_t>{3000u, 4000u}));
}

TEST(System, DeadlockedRunReturnsUnfinished)
{
    System sys(smallConfig(1));
    SyncId f = sys.createFutex();
    ThreadId main = addScript(sys, "main", {Action::makeFutexWait(f)});
    sys.setMainThread(main);
    auto res = sys.run();
    EXPECT_FALSE(res.finished);
}

TEST(System, RunLimitStopsEarly)
{
    System sys(smallConfig(1));
    std::vector<Action> script(100, Action::makeCompute(1'000'000));
    ThreadId main = addScript(sys, "main", script);
    sys.setMainThread(main);
    auto res = sys.run(kTicksPerMs);
    EXPECT_FALSE(res.finished);
}

TEST(System, TotalCountersSumThreads)
{
    System sys(smallConfig(2));
    ThreadId a = addScript(sys, "a", {Action::makeCompute(10'000)});
    ThreadId main = addScript(sys, "main", {Action::makeJoin(a)});
    sys.setMainThread(main);
    sys.run();
    auto total = sys.totalCounters();
    EXPECT_EQ(total.instructions, sys.thread(a).counters.instructions +
                                      sys.thread(main).counters.instructions);
}

TEST(SystemDeathTest, ConfigurationErrors)
{
    System sys(smallConfig(1));
    ThreadId main = addScript(sys, "main", {});
    sys.setMainThread(main);
    EXPECT_EXIT(
        {
            System s2(smallConfig(1));
            s2.run();
        },
        ::testing::ExitedWithCode(1), "no threads");
    EXPECT_EXIT(
        {
            System s3(smallConfig(1));
            addScript(s3, "x", {});
            s3.run();
        },
        ::testing::ExitedWithCode(1), "main thread");
}

TEST(SystemDeathTest, UnlockWithoutOwnershipPanics)
{
    System sys(smallConfig(1));
    SyncId m = sys.createMutex();
    ThreadId main = addScript(sys, "main", {Action::makeMutexUnlock(m)});
    sys.setMainThread(main);
    EXPECT_DEATH(sys.run(), "own");
}

TEST(System, DeterministicAcrossIdenticalRuns)
{
    auto run_once = [] {
        System sys(smallConfig(2));
        SyncId m = sys.createMutex();
        std::vector<Action> script;
        for (int i = 0; i < 10; ++i) {
            script.push_back(Action::makeCompute(5'000));
            script.push_back(Action::makeMutexLock(m));
            script.push_back(Action::makeCompute(2'000));
            script.push_back(Action::makeMutexUnlock(m));
        }
        ThreadId a = addScript(sys, "a", script);
        ThreadId b = addScript(sys, "b", script);
        ThreadId main = addScript(
            sys, "main", {Action::makeJoin(a), Action::makeJoin(b)});
        sys.setMainThread(main);
        return sys.run().totalTime;
    };
    EXPECT_EQ(run_once(), run_once());
}
