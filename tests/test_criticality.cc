/**
 * @file
 * Tests for criticality stacks.
 */

#include <gtest/gtest.h>

#include "exp/experiment.hh"
#include "pred/criticality.hh"

using namespace dvfs;
using namespace dvfs::pred;

namespace {

EpochThread
active(os::ThreadId tid, Tick busy)
{
    EpochThread et;
    et.tid = tid;
    et.delta.busyTime = busy;
    return et;
}

/** Append an epoch over [start, end) with @p threads to @p rec. */
void
epoch(RunRecord &rec, Tick start, Tick end,
      std::initializer_list<EpochThread> threads)
{
    rec.epochs.open(start, end, os::SyncEventKind::RunEnd, os::kNoThread);
    for (const EpochThread &et : threads)
        rec.epochs.addRow(et.tid, et.delta);
}

} // namespace

TEST(Criticality, SoloRunnerGetsFullCredit)
{
    RunRecord rec;
    rec.totalTime = 100;
    epoch(rec, 0, 100, {active(3, 100)});
    CriticalityStack stack(rec);
    ASSERT_EQ(stack.shares().size(), 1u);
    EXPECT_EQ(stack.shares()[0].tid, 3u);
    EXPECT_EQ(stack.shares()[0].criticality, 100u);
    EXPECT_DOUBLE_EQ(stack.shares()[0].fraction, 1.0);
    EXPECT_EQ(stack.mostCritical(), 3u);
}

TEST(Criticality, ParallelEpochSplitsEvenly)
{
    RunRecord rec;
    rec.totalTime = 100;
    epoch(rec, 0, 100, {active(0, 100), active(1, 100)});
    CriticalityStack stack(rec);
    ASSERT_EQ(stack.shares().size(), 2u);
    EXPECT_EQ(stack.shares()[0].criticality, 50u);
    EXPECT_EQ(stack.shares()[1].criticality, 50u);
}

TEST(Criticality, SerialThreadDominates)
{
    RunRecord rec;
    rec.totalTime = 300;
    // Parallel phase, then thread 0 alone (it serializes).
    epoch(rec, 0, 100, {active(0, 100), active(1, 100)});
    epoch(rec, 100, 300, {active(0, 200)});
    CriticalityStack stack(rec);
    EXPECT_EQ(stack.mostCritical(), 0u);
    EXPECT_EQ(stack.shares()[0].criticality, 250u);
    EXPECT_EQ(stack.shares()[1].criticality, 50u);
}

TEST(Criticality, IdleEpochsAccountedSeparately)
{
    RunRecord rec;
    rec.totalTime = 150;
    epoch(rec, 0, 100, {active(0, 100)});
    epoch(rec, 100, 150, {});
    CriticalityStack stack(rec);
    EXPECT_EQ(stack.idleTime(), 50u);
    EXPECT_EQ(stack.accountedTime(), 150u);
}

TEST(Criticality, DecompositionIsExactWithRemainders)
{
    RunRecord rec;
    rec.totalTime = 101;
    // 101 over 3 threads does not divide evenly; decomposition must
    // still be exact.
    epoch(rec, 0, 101, {active(0, 1), active(1, 1), active(2, 1)});
    CriticalityStack stack(rec);
    EXPECT_EQ(stack.accountedTime(), 101u);
}

TEST(Criticality, EndToEndStackCoversTheRun)
{
    auto out = exp::runFixed(wl::syntheticSmall(4, 80),
                             Frequency::ghz(1.0));
    CriticalityStack stack(out.record);
    EXPECT_EQ(stack.accountedTime(), out.totalTime);
    EXPECT_NE(stack.mostCritical(), os::kNoThread);
    // Fractions sum to <= 1 (idle takes the rest).
    double sum = 0.0;
    for (const auto &s : stack.shares())
        sum += s.fraction;
    EXPECT_LE(sum, 1.0 + 1e-9);
}

TEST(Criticality, EmptyRecord)
{
    RunRecord rec;
    CriticalityStack stack(rec);
    EXPECT_TRUE(stack.shares().empty());
    EXPECT_EQ(stack.mostCritical(), os::kNoThread);
    EXPECT_EQ(stack.accountedTime(), 0u);
}
