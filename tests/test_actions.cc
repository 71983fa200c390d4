/**
 * @file
 * Tests for the action vocabulary and its factories.
 */

#include <gtest/gtest.h>

#include "os/action.hh"
#include "os/system.hh"
#include "test_util.hh"

using namespace dvfs::os;

TEST(Action, ComputeFactory)
{
    Action a = Action::makeCompute(5000, 3, 1, 1.5);
    EXPECT_EQ(a.kind, ActionKind::Compute);
    EXPECT_EQ(a.compute.instructions, 5000u);
    EXPECT_EQ(a.compute.l2Loads, 3u);
    EXPECT_EQ(a.compute.l3Loads, 1u);
    EXPECT_DOUBLE_EQ(a.compute.ipcScale, 1.5);
}

TEST(Action, ClusterFactoryMovesChains)
{
    dvfs::test::ClusterChains addrs{{1, 2, 3}, {4}};
    dvfs::uarch::MissClusterSpec spec = addrs.spec();
    spec.overlapInstructions = 99;
    Action a = Action::makeCluster(spec);
    EXPECT_EQ(a.kind, ActionKind::MissCluster);
    ASSERT_EQ(a.cluster.chains, 2u);
    EXPECT_EQ(a.cluster.chain(0).size(), 3u);
    EXPECT_EQ(a.cluster.chain(1).size(), 1u);
    EXPECT_EQ(a.cluster.chain(1)[0], 4u);
    EXPECT_EQ(a.cluster.loadCount(), 4u);
    EXPECT_EQ(a.cluster.overlapInstructions, 99u);
}

TEST(Action, StoreBurstFactoryDefaultsToWideStores)
{
    Action a = Action::makeStoreBurst(0x1000, 32);
    EXPECT_EQ(a.kind, ActionKind::StoreBurst);
    EXPECT_EQ(a.burst.baseAddr, 0x1000u);
    EXPECT_EQ(a.burst.lines, 32u);
    EXPECT_EQ(a.burst.storesPerLine, 2u);  // 32-byte vector stores
}

TEST(Action, SyncFactories)
{
    EXPECT_EQ(Action::makeMutexLock(7).kind, ActionKind::MutexLock);
    EXPECT_EQ(Action::makeMutexLock(7).sync, 7u);
    EXPECT_EQ(Action::makeMutexUnlock(7).kind, ActionKind::MutexUnlock);
    EXPECT_EQ(Action::makeBarrierWait(9).kind, ActionKind::BarrierWait);
    EXPECT_EQ(Action::makeFutexWait(3).kind, ActionKind::FutexWait);
    EXPECT_EQ(Action::makeAlloc(4096).allocBytes, 4096u);
    EXPECT_EQ(Action::makeJoin(5).joinTarget, 5u);
    EXPECT_EQ(Action::makeExit().kind, ActionKind::Exit);
}

TEST(TraceNames, EventAndStateNamesAreStable)
{
    EXPECT_STREQ(syncEventKindName(SyncEventKind::FutexWait), "FutexWait");
    EXPECT_STREQ(syncEventKindName(SyncEventKind::GcBegin), "GcBegin");
    EXPECT_STREQ(syncEventKindName(SyncEventKind::RunEnd), "RunEnd");
    EXPECT_STREQ(threadStateName(ThreadState::Running), "Running");
    EXPECT_STREQ(threadStateName(ThreadState::Blocked), "Blocked");
    EXPECT_STREQ(threadStateName(ThreadState::Finished), "Finished");
}
