/**
 * @file
 * Tests for the PerfCounters value type (the predictor interface).
 */

#include <gtest/gtest.h>

#include "uarch/perf_counters.hh"

using dvfs::uarch::PerfCounters;

namespace {

PerfCounters
filled(int k)
{
    PerfCounters c;
    c.busyTime = 100u * k;
    c.instructions = 10u * k;
    c.critNonscaling = 7u * k;
    c.leadingNonscaling = 6u * k;
    c.stallNonscaling = 5u * k;
    c.sqFullTime = 4u * k;
    c.trueMemTime = 3u * k;
    c.computeTime = 2u * k;
    c.l1Hits = 11u * k;
    c.l2Hits = 12u * k;
    c.l3Hits = 13u * k;
    c.dramLoads = 14u * k;
    c.missClusters = 15u * k;
    c.storeBursts = 16u * k;
    c.storeLines = 17u * k;
    return c;
}

} // namespace

TEST(PerfCounters, DefaultIsZero)
{
    PerfCounters c;
    EXPECT_EQ(c.busyTime, 0u);
    EXPECT_EQ(c.instructions, 0u);
    EXPECT_EQ(c.critNonscaling, 0u);
    EXPECT_EQ(c.sqFullTime, 0u);
    EXPECT_EQ(c.storeLines, 0u);
}

TEST(PerfCounters, DifferenceIsFieldWise)
{
    PerfCounters d = filled(5) - filled(2);
    PerfCounters e = filled(3);
    EXPECT_EQ(d.busyTime, e.busyTime);
    EXPECT_EQ(d.instructions, e.instructions);
    EXPECT_EQ(d.critNonscaling, e.critNonscaling);
    EXPECT_EQ(d.leadingNonscaling, e.leadingNonscaling);
    EXPECT_EQ(d.stallNonscaling, e.stallNonscaling);
    EXPECT_EQ(d.sqFullTime, e.sqFullTime);
    EXPECT_EQ(d.trueMemTime, e.trueMemTime);
    EXPECT_EQ(d.computeTime, e.computeTime);
    EXPECT_EQ(d.l1Hits, e.l1Hits);
    EXPECT_EQ(d.l2Hits, e.l2Hits);
    EXPECT_EQ(d.l3Hits, e.l3Hits);
    EXPECT_EQ(d.dramLoads, e.dramLoads);
    EXPECT_EQ(d.missClusters, e.missClusters);
    EXPECT_EQ(d.storeBursts, e.storeBursts);
    EXPECT_EQ(d.storeLines, e.storeLines);
}

TEST(PerfCounters, AccumulateIsInverseOfDifference)
{
    PerfCounters a = filled(4);
    PerfCounters b = filled(9);
    PerfCounters c = a;
    c += b - a;
    EXPECT_EQ(c.busyTime, b.busyTime);
    EXPECT_EQ(c.instructions, b.instructions);
    EXPECT_EQ(c.sqFullTime, b.sqFullTime);
    EXPECT_EQ(c.storeLines, b.storeLines);
}

TEST(PerfCounters, SnapshotDeltaIdiom)
{
    // The recorder's pattern: totals vs earlier snapshot.
    PerfCounters live = filled(2);
    PerfCounters snap = live;
    live += filled(1);
    PerfCounters delta = live - snap;
    EXPECT_EQ(delta.busyTime, filled(1).busyTime);
}

TEST(PerfCounters, WordsRoundTripAndCompare)
{
    // EpochStore.WordsFollowDeclarationOrder pins the word order.
    const PerfCounters c = filled(1);
    EXPECT_EQ(PerfCounters::fromWords(c.words()), c);
    EXPECT_NE(filled(2), c);
}
