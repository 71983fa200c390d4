/**
 * @file
 * Tests for the epoch decomposition (RunRecorder) — the DEP kernel
 * module's bookkeeping.
 */

#include <gtest/gtest.h>

#include "pred/record.hh"
#include "test_util.hh"

using namespace dvfs;
using namespace dvfs::os;
using namespace dvfs::pred;
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

TEST(RunRecorder, EpochsPartitionTheRun)
{
    System sys(smallConfig());
    SyncId m = sys.createMutex();
    std::vector<Action> script = {
        Action::makeCompute(50'000), Action::makeMutexLock(m),
        Action::makeCompute(100'000), Action::makeMutexUnlock(m),
        Action::makeCompute(20'000)};
    ThreadId a = addScript(sys, "a", script);
    ThreadId b = addScript(sys, "b", script);
    ThreadId main = addScript(sys, "main",
                              {Action::makeJoin(a), Action::makeJoin(b)});
    sys.setMainThread(main);

    RunRecorder rec(sys);
    sys.addListener(&rec);
    auto res = sys.run();
    auto record = rec.finalize();

    ASSERT_FALSE(record.epochs.empty());
    EXPECT_EQ(record.epochs[0].start, 0u);
    EXPECT_EQ(record.epochs[record.epochs.size() - 1].end, res.totalTime);
    Tick sum = 0;
    Tick prev_end = 0;
    for (const auto &ep : record.epochs) {
        EXPECT_EQ(ep.start, prev_end) << "epochs must tile the run";
        EXPECT_GT(ep.end, ep.start);
        prev_end = ep.end;
        sum += ep.duration();
    }
    EXPECT_EQ(sum, res.totalTime);
}

TEST(RunRecorder, StallTidSetOnSleepBoundaries)
{
    System sys(smallConfig(1));
    SyncId f = sys.createFutex();
    ThreadId a = addScript(sys, "a", {Action::makeCompute(10'000),
                                      Action::makeFutexWait(f)});
    ThreadId main = sys.addThread(
        "main", std::make_unique<LambdaProgram>(
                    [&sys, f, a, step = 0](ThreadContext &) mutable
                    -> Action {
                        switch (step++) {
                          case 0:
                            return Action::makeCompute(100'000);
                          case 1:
                            sys.futexWakeAll(f);
                            return Action::makeJoin(a);
                          default:
                            return Action::makeExit();
                        }
                    }));
    sys.setMainThread(main);

    RunRecorder rec(sys);
    sys.addListener(&rec);
    sys.run();
    auto record = rec.finalize();

    bool saw_stall = false;
    for (const auto &ep : record.epochs) {
        if (ep.boundary == SyncEventKind::FutexWait) {
            EXPECT_EQ(ep.stallTid, a);
            saw_stall = true;
        } else {
            EXPECT_EQ(ep.stallTid, kNoThread);
        }
    }
    EXPECT_TRUE(saw_stall);
}

TEST(RunRecorder, ActiveSetMatchesScheduledThreads)
{
    // One core: at any epoch at most one thread can be active.
    System sys(smallConfig(1));
    std::vector<Action> script(4, Action::makeCompute(30'000));
    ThreadId a = addScript(sys, "a", script);
    ThreadId main = addScript(sys, "main", {Action::makeJoin(a)});
    sys.setMainThread(main);

    RunRecorder rec(sys);
    sys.addListener(&rec);
    sys.run();
    auto record = rec.finalize();

    for (const auto &ep : record.epochs)
        EXPECT_LE(ep.active.size(), 1u);
}

TEST(RunRecorder, BusyDeltasSumToThreadTotals)
{
    System sys(smallConfig());
    SyncId m = sys.createMutex();
    std::vector<Action> script = {
        Action::makeCompute(40'000), Action::makeMutexLock(m),
        Action::makeCompute(60'000), Action::makeMutexUnlock(m)};
    ThreadId a = addScript(sys, "a", script);
    ThreadId b = addScript(sys, "b", script);
    ThreadId main = addScript(sys, "main",
                              {Action::makeJoin(a), Action::makeJoin(b)});
    sys.setMainThread(main);

    RunRecorder rec(sys);
    sys.addListener(&rec);
    sys.run();
    auto record = rec.finalize();

    std::vector<Tick> busy(sys.numThreads(), 0);
    for (const auto &ep : record.epochs) {
        for (const auto &et : ep.active)
            busy[et.tid] += et.delta.busyTime;
    }
    // All busy time is attributed to epochs where the thread was
    // active (counters commit at action completion, and completion
    // while running is always inside an active epoch).
    for (std::size_t t = 0; t < sys.numThreads(); ++t) {
        EXPECT_EQ(busy[t],
                  record.threads[t].totals.busyTime)
            << "thread " << t;
    }
}

TEST(RunRecorder, ThreadSummariesComplete)
{
    System sys(smallConfig());
    ThreadId a = addScript(sys, "a", {Action::makeCompute(5'000)});
    ThreadId main = addScript(sys, "main", {Action::makeJoin(a)});
    sys.setMainThread(main);
    RunRecorder rec(sys);
    sys.addListener(&rec);
    auto res = sys.run();
    auto record = rec.finalize();

    ASSERT_EQ(record.threads.size(), 2u);
    EXPECT_EQ(record.totalTime, res.totalTime);
    EXPECT_EQ(record.baseFreq, Frequency::ghz(1.0));
    for (const auto &t : record.threads) {
        EXPECT_LE(t.spawnTick, t.exitTick);
        EXPECT_LE(t.exitTick, res.totalTime);
    }
}

TEST(RunRecorderDeathTest, DoubleFinalizeIsFatal)
{
    System sys(smallConfig());
    ThreadId main = addScript(sys, "main", {});
    sys.setMainThread(main);
    RunRecorder rec(sys);
    sys.addListener(&rec);
    sys.run();
    rec.finalize();
    EXPECT_EXIT(rec.finalize(), ::testing::ExitedWithCode(1), "twice");
}
