/**
 * @file
 * Integration tests for the managed runtime: allocation (zeroing),
 * safepoints, and the stop-the-world parallel collector.
 */

#include <gtest/gtest.h>

#include "rt/runtime.hh"
#include "test_util.hh"

using namespace dvfs;
using namespace dvfs::os;
using namespace dvfs::test;

namespace {

SystemConfig
smallConfig()
{
    SystemConfig cfg;
    cfg.cores = 4;
    cfg.coreFreq = Frequency::ghz(1.0);
    return cfg;
}

rt::RuntimeConfig
smallRuntime()
{
    rt::RuntimeConfig rc;
    rc.nurseryBytes = 64 * 1024;
    rc.survivalRate = 0.25;
    return rc;
}

/** Verifies the stop-the-world property while the run executes. */
class StwChecker : public SyncListener
{
  public:
    explicit StwChecker(rt::Runtime &rt) : _rt(rt) {}

    void
    onSyncEvent(const SyncEvent &ev, const System &sys) override
    {
        if (ev.kind == SyncEventKind::GcBegin)
            _active = true;
        if (ev.kind == SyncEventKind::GcEnd)
            _active = false;
        if (_active && ev.kind == SyncEventKind::SchedIn) {
            // Only service threads may be scheduled during a
            // collection.
            if (!sys.thread(ev.tid).service)
                violations += 1;
        }
    }

    int violations = 0;

  private:
    rt::Runtime &_rt;
    bool _active = false;
};

} // namespace

TEST(Runtime, AllocationProducesZeroingStores)
{
    System sys(smallConfig());
    rt::Runtime rt(sys, smallRuntime());
    rt.attach();
    ThreadId main = addScript(sys, "main",
                              {Action::makeAlloc(4096),
                               Action::makeCompute(1000)});
    sys.setMainThread(main);
    EXPECT_TRUE(sys.run().finished);
    // 4096 bytes = 64 zeroed lines charged to the allocating thread.
    EXPECT_EQ(sys.thread(main).counters.storeLines, 64u);
    EXPECT_EQ(rt.heap().totalAllocated(), 4096u);
    EXPECT_EQ(rt.collections(), 0u);
}

TEST(Runtime, LargeAllocationSplitsIntoChunks)
{
    System sys(smallConfig());
    rt::Runtime rt(sys, smallRuntime());
    rt.attach();
    ThreadId main = addScript(sys, "main", {Action::makeAlloc(8192)});
    sys.setMainThread(main);
    sys.run();
    const auto &pc = sys.thread(main).counters;
    EXPECT_EQ(pc.storeLines, 128u);
    // 128 lines in chunks of at most kMaxZeroLinesPerBurst.
    constexpr std::uint32_t chunk = rt::Runtime::kMaxZeroLinesPerBurst;
    EXPECT_EQ(pc.storeBursts, (128u + chunk - 1) / chunk);
    EXPECT_GT(pc.storeBursts, 1u);
}

TEST(Runtime, NurseryExhaustionTriggersCollection)
{
    System sys(smallConfig());
    rt::Runtime rt(sys, smallRuntime());
    rt.attach();
    // Allocate 3x the nursery: expect >= 2 collections.
    std::vector<Action> script(48, Action::makeAlloc(4096));
    ThreadId main = addScript(sys, "main", script);
    sys.setMainThread(main);
    EXPECT_TRUE(sys.run().finished);
    EXPECT_GE(rt.collections(), 2u);
    EXPECT_GT(rt.gcTime(), 0u);
    EXPECT_GT(rt.heap().totalCopied(), 0u);
}

TEST(Runtime, CollectionsStopTheWorld)
{
    System sys(smallConfig());
    rt::Runtime rt(sys, smallRuntime());
    rt.attach();
    StwChecker checker(rt);
    sys.addListener(&checker);

    std::vector<Action> worker_script;
    for (int i = 0; i < 24; ++i) {
        worker_script.push_back(Action::makeAlloc(2048));
        worker_script.push_back(Action::makeCompute(2000));
    }
    ThreadId a = addScript(sys, "a", worker_script);
    ThreadId b = addScript(sys, "b", worker_script);
    ThreadId main = addScript(sys, "main",
                              {Action::makeJoin(a), Action::makeJoin(b)});
    sys.setMainThread(main);
    EXPECT_TRUE(sys.run().finished);
    EXPECT_GE(rt.collections(), 1u);
    EXPECT_EQ(checker.violations, 0);
}

TEST(Runtime, GcMarksArePairedAndOrdered)
{
    System sys(smallConfig());
    rt::Runtime rt(sys, smallRuntime());
    rt.attach();
    TraceCollector trace;
    sys.addListener(&trace);

    std::vector<Action> script(40, Action::makeAlloc(4096));
    ThreadId main = addScript(sys, "main", script);
    sys.setMainThread(main);
    sys.run();

    int depth = 0;
    for (const auto &ev : trace.events) {
        if (ev.kind == SyncEventKind::GcBegin) {
            EXPECT_EQ(depth, 0);
            ++depth;
        } else if (ev.kind == SyncEventKind::GcEnd) {
            EXPECT_EQ(depth, 1);
            --depth;
        }
    }
    EXPECT_EQ(depth, 0);
    EXPECT_EQ(trace.count(SyncEventKind::GcBegin), rt.collections());
}

TEST(Runtime, BlockedThreadsDoNotPreventCollection)
{
    // One thread waits on a mutex held across a GC; the collection
    // must still happen and everyone must finish.
    System sys(smallConfig());
    rt::Runtime rt(sys, smallRuntime());
    rt.attach();
    SyncId m = sys.createMutex();

    std::vector<Action> holder = {
        Action::makeMutexLock(m),
    };
    for (int i = 0; i < 40; ++i)
        holder.push_back(Action::makeAlloc(2048));  // triggers GC in CS
    holder.push_back(Action::makeMutexUnlock(m));

    std::vector<Action> waiter = {
        Action::makeCompute(50'000),  // lose the lock race
        Action::makeMutexLock(m),
        Action::makeCompute(1000),
        Action::makeMutexUnlock(m),
    };
    ThreadId h = addScript(sys, "holder", holder);
    ThreadId w = addScript(sys, "waiter", waiter);
    ThreadId main = addScript(sys, "main",
                              {Action::makeJoin(h), Action::makeJoin(w)});
    sys.setMainThread(main);
    EXPECT_TRUE(sys.run().finished);
    EXPECT_GE(rt.collections(), 1u);
}

TEST(Runtime, SurvivalRateControlsCopyVolume)
{
    auto run_with = [](double survival) {
        System sys(smallConfig());
        auto rc = smallRuntime();
        rc.survivalRate = survival;
        rt::Runtime rt(sys, rc);
        rt.attach();
        std::vector<Action> script(48, Action::makeAlloc(4096));
        ThreadId main = addScript(sys, "main", script);
        sys.setMainThread(main);
        sys.run();
        return rt.heap().totalCopied();
    };
    EXPECT_GT(run_with(0.5), 2 * run_with(0.1));
}

TEST(Runtime, GcWorkersUseFutexSynchronization)
{
    // DEP's key requirement: GC-internal coordination is visible in
    // the futex trace.
    System sys(smallConfig());
    rt::Runtime rt(sys, smallRuntime());
    rt.attach();
    TraceCollector trace;
    sys.addListener(&trace);
    std::vector<Action> script(40, Action::makeAlloc(4096));
    ThreadId main = addScript(sys, "main", script);
    sys.setMainThread(main);
    sys.run();

    std::size_t service_waits = 0;
    for (const auto &ev : trace.events) {
        if (ev.kind == SyncEventKind::FutexWait &&
            ev.tid != kNoThread && sys.thread(ev.tid).service) {
            ++service_waits;
        }
    }
    // Parked workers + termination barrier per collection.
    EXPECT_GE(service_waits, 2u * rt.collections());
}

TEST(RuntimeDeathTest, ConfigValidation)
{
    System sys(smallConfig());
    auto rc = smallRuntime();
    rc.survivalRate = 1.5;
    EXPECT_EXIT(rt::Runtime(sys, rc), ::testing::ExitedWithCode(1),
                "survival");
}
