/**
 * @file
 * Unit tests for the futex table and the scheduler bookkeeping.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "os/futex.hh"
#include "os/scheduler.hh"

using namespace dvfs::os;

TEST(FutexTable, AllocateGivesUniqueIds)
{
    FutexTable t;
    SyncId a = t.allocate();
    SyncId b = t.allocate();
    SyncId c = t.allocate();
    EXPECT_NE(a, b);
    EXPECT_NE(b, c);
}

TEST(FutexTable, WakeIsFifo)
{
    FutexTable t;
    SyncId f = t.allocate();
    t.wait(f, 10);
    t.wait(f, 20);
    t.wait(f, 30);
    EXPECT_EQ(t.waiters(f), 3u);

    auto w1 = t.wake(f, 2);
    ASSERT_EQ(w1.size(), 2u);
    EXPECT_EQ(w1[0], 10u);
    EXPECT_EQ(w1[1], 20u);
    EXPECT_EQ(t.waiters(f), 1u);

    auto w2 = t.wake(f, 5);
    ASSERT_EQ(w2.size(), 1u);
    EXPECT_EQ(w2[0], 30u);
    EXPECT_EQ(t.waiters(f), 0u);
}

TEST(FutexTable, WakeOnEmptyFutexReturnsNothing)
{
    FutexTable t;
    SyncId f = t.allocate();
    EXPECT_TRUE(t.wake(f, 1).empty());
    EXPECT_TRUE(t.wake(12345, 1).empty());
}

TEST(FutexTable, RemoveSpecificWaiter)
{
    FutexTable t;
    SyncId f = t.allocate();
    t.wait(f, 1);
    t.wait(f, 2);
    EXPECT_TRUE(t.remove(f, 1));
    EXPECT_FALSE(t.remove(f, 1));
    auto w = t.wake(f, 10);
    ASSERT_EQ(w.size(), 1u);
    EXPECT_EQ(w[0], 2u);
}

TEST(FutexTable, TotalWaitersAcrossFutexes)
{
    FutexTable t;
    SyncId a = t.allocate(), b = t.allocate();
    t.wait(a, 1);
    t.wait(a, 2);
    t.wait(b, 3);
    EXPECT_EQ(t.totalWaiters(), 3u);
    t.reset();
    EXPECT_EQ(t.totalWaiters(), 0u);
}

TEST(FutexTable, FifoSurvivesLongQueuesAndTableGrowth)
{
    // Queues longer than a handful of waiters, moved when allocating
    // more futexes reallocates the table, must keep their FIFO order.
    FutexTable t;
    const SyncId a = t.allocate(), b = t.allocate();
    for (ThreadId tid = 100; tid < 109; ++tid)
        t.wait(a, tid);
    t.wait(b, 200);
    t.wait(b, 201);
    EXPECT_EQ(t.totalWaiters(), 11u);

    for (int i = 0; i < 64; ++i)
        t.allocate();
    EXPECT_EQ(t.waiters(a), 9u);
    EXPECT_EQ(t.waiters(b), 2u);
    EXPECT_EQ(t.totalWaiters(), 11u);

    EXPECT_TRUE(t.remove(a, 104));
    EXPECT_EQ(t.totalWaiters(), 10u);

    EXPECT_EQ(t.wake(a, 3), (std::vector<ThreadId>{100, 101, 102}));
    EXPECT_EQ(t.totalWaiters(), 7u);

    const std::uint32_t all = ~0u;
    EXPECT_EQ(t.wake(a, all),
              (std::vector<ThreadId>{103, 105, 106, 107, 108}));
    EXPECT_EQ(t.totalWaiters(), 2u);
    EXPECT_EQ(t.wake(b, all), (std::vector<ThreadId>{200, 201}));
    EXPECT_EQ(t.totalWaiters(), 0u);
}

TEST(FutexTableDeathTest, WaitOnInvalidIdPanics)
{
    FutexTable t;
    EXPECT_DEATH(t.wait(kNoSync, 7), "invalid");
}

TEST(Scheduler, AssignAndRelease)
{
    Scheduler s(2);
    EXPECT_EQ(s.cores(), 2u);
    EXPECT_EQ(s.freeCore(), 0);
    s.assign(7, 0);
    EXPECT_EQ(s.occupant(0), 7u);
    EXPECT_EQ(s.freeCore(), 1);
    s.assign(8, 1);
    EXPECT_EQ(s.freeCore(), -1);
    EXPECT_EQ(s.busyCores(), 2u);
    s.release(0);
    EXPECT_EQ(s.freeCore(), 0);
    EXPECT_EQ(s.occupant(0), kNoThread);
}

TEST(Scheduler, ReadyQueueIsFifo)
{
    Scheduler s(1);
    EXPECT_FALSE(s.hasReady());
    EXPECT_EQ(s.popReady(), kNoThread);
    s.enqueueReady(3);
    s.enqueueReady(1);
    s.enqueueReady(2);
    EXPECT_EQ(s.readyCount(), 3u);
    EXPECT_EQ(s.popReady(), 3u);
    EXPECT_EQ(s.popReady(), 1u);
    EXPECT_EQ(s.popReady(), 2u);
    EXPECT_FALSE(s.hasReady());
}

TEST(Scheduler, ResetClears)
{
    Scheduler s(2);
    s.assign(1, 0);
    s.enqueueReady(2);
    s.reset();
    EXPECT_EQ(s.busyCores(), 0u);
    EXPECT_FALSE(s.hasReady());
}

TEST(SchedulerDeathTest, DoubleAssignPanics)
{
    Scheduler s(1);
    s.assign(1, 0);
    EXPECT_DEATH(s.assign(2, 0), "occupied");
}

TEST(SchedulerDeathTest, ReleasingFreeCorePanics)
{
    Scheduler s(1);
    EXPECT_DEATH(s.release(0), "free");
}
