/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.hh"

using namespace dvfs;
using dvfs::sim::EventQueue;

TEST(EventQueue, StartsEmptyAtTickZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_FALSE(eq.runOne());
}

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    EXPECT_EQ(eq.run(), 3u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickEventsRunInInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CallbackMaySchedule)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] {
        ++fired;
        eq.schedule(2, [&] { ++fired; });
        // Same-tick scheduling is allowed and runs afterwards.
        eq.schedule(1, [&] { ++fired; });
    });
    eq.run();
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(eq.now(), 2u);
}

TEST(EventQueue, ScheduleAfterUsesCurrentTime)
{
    EventQueue eq;
    Tick seen = 0;
    eq.schedule(100, [&] {
        eq.scheduleAfter(50, [&] { seen = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(seen, 150u);
}

TEST(EventQueue, PendingTracksLiveEvents)
{
    EventQueue eq;
    eq.schedule(1, [] {});
    eq.schedule(2, [] {});
    EXPECT_EQ(eq.pending(), 2u);
    EXPECT_TRUE(eq.runOne());
    EXPECT_EQ(eq.pending(), 1u);
    EXPECT_TRUE(eq.runOne());
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, RunUntilStopsBeforeLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(20, [&] { ++fired; });
    eq.schedule(30, [&] { ++fired; });
    EXPECT_EQ(eq.runUntil(20), 1u);  // the event AT the limit stays
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 20u);
    EXPECT_EQ(eq.run(), 2u);
    EXPECT_EQ(fired, 3);
}

TEST(EventQueue, RunUntilAtOrBelowNowRunsNothing)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.schedule(200, [] {});
    EXPECT_TRUE(eq.runOne());
    EXPECT_EQ(eq.now(), 100u);
    // A limit in the past must not rewind the clock.
    EXPECT_EQ(eq.runUntil(50), 0u);
    EXPECT_EQ(eq.now(), 100u);
    EXPECT_EQ(eq.runUntil(100), 0u);
    EXPECT_EQ(eq.now(), 100u);
    EXPECT_EQ(eq.pending(), 1u);
    EXPECT_EQ(eq.run(), 1u);
    EXPECT_EQ(eq.now(), 200u);
}

TEST(EventQueue, ExecutedCounterAccumulates)
{
    EventQueue eq;
    for (Tick t = 1; t <= 100; ++t)
        eq.schedule(t, [] {});
    eq.run();
    EXPECT_EQ(eq.executed(), 100u);
}

TEST(EventQueueDeathTest, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.run();
    EXPECT_DEATH(eq.schedule(50, [] {}), "past");
}

TEST(EventQueueDeathTest, ScheduleBeforeNowAfterLowRunUntilPanics)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.schedule(200, [] {});
    eq.runOne();
    eq.runUntil(50);
    // now() is still 100, so tick 60 is in the past: it must not be
    // accepted and then fire after an event that already ran at 100.
    EXPECT_DEATH(eq.schedule(60, [] {}), "past");
}

TEST(EventQueue, SameTickSelfRescheduleRunsAfterExistingEvents)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&] {
        order.push_back(0);
        // Scheduled mid-run at the current tick: runs after the
        // events already queued for tick 5, in insertion order.
        eq.schedule(5, [&] { order.push_back(2); });
        eq.schedule(5, [&] { order.push_back(3); });
    });
    eq.schedule(5, [&] { order.push_back(1); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(eq.now(), 5u);
}

/** Stress: a large schedule-then-run batch is deterministic. */
TEST(EventQueue, StressManyEventsDeterministic)
{
    EventQueue eq;
    std::uint64_t sum1 = 0;
    for (int i = 0; i < 10000; ++i) {
        Tick when = static_cast<Tick>((i * 7919) % 5000 + 1);
        eq.schedule(when, [&sum1, when] { sum1 += when; });
    }
    eq.run();

    EventQueue eq2;
    std::uint64_t sum2 = 0;
    for (int i = 0; i < 10000; ++i) {
        Tick when = static_cast<Tick>((i * 7919) % 5000 + 1);
        eq2.schedule(when, [&sum2, when] { sum2 += when; });
    }
    eq2.run();
    EXPECT_EQ(sum1, sum2);
}
