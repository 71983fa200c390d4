/**
 * @file
 * Tests for the workload thread programs (the benchmark generators).
 */

#include <gtest/gtest.h>

#include "sim/rng.hh"
#include "wl/programs.hh"
#include "wl/suite.hh"

using namespace dvfs;
using namespace dvfs::wl;
using namespace dvfs::os;

namespace {

/** Drain a program into an action list (bounded). */
std::vector<Action>
drain(ThreadProgram &prog, ThreadId tid = 0,
      std::size_t limit = 1'000'000)
{
    sim::Rng rng(tid + 1);
    ThreadContext ctx{tid, rng};
    std::vector<Action> out;
    while (out.size() < limit) {
        Action a = prog.next(ctx);
        bool is_exit = a.kind == ActionKind::Exit;
        out.push_back(std::move(a));
        if (is_exit)
            break;
    }
    return out;
}

SharedWorkload
shared(WorkloadParams params)
{
    SharedWorkload sh;
    sh.params = std::move(params);
    for (std::uint32_t i = 0; i < sh.params.numLocks; ++i)
        sh.locks.push_back(100 + i);
    if (sh.params.barrierEvery > 0)
        sh.barrier = 200;
    sh.workers = {0, 1, 2, 3};
    return sh;
}

std::size_t
countKind(const std::vector<Action> &as, ActionKind k)
{
    std::size_t n = 0;
    for (const auto &a : as)
        n += (a.kind == k) ? 1 : 0;
    return n;
}

} // namespace

TEST(WorkerProgram, TerminatesWithExit)
{
    auto sh = shared(syntheticSmall(4, 25));
    WorkerProgram w(sh, 1);
    auto actions = drain(w);
    ASSERT_FALSE(actions.empty());
    EXPECT_EQ(actions.back().kind, ActionKind::Exit);
    EXPECT_LT(actions.size(), 1'000'000u);
}

TEST(WorkerProgram, EmitsExpectedActionMix)
{
    auto params = syntheticSmall(4, 50);
    params.clustersPerItem = 2;
    params.allocBytesPerItem = 2048;
    params.allocChunkBytes = 1024;  // two Alloc actions per item
    auto sh = shared(params);
    WorkerProgram w(sh, 1);
    auto actions = drain(w);

    EXPECT_EQ(countKind(actions, ActionKind::MissCluster), 100u);
    EXPECT_EQ(countKind(actions, ActionKind::Alloc), 100u);
    // Locks are probabilistic; lock/unlock must pair exactly.
    std::size_t locks = countKind(actions, ActionKind::MutexLock);
    EXPECT_EQ(locks, countKind(actions, ActionKind::MutexUnlock));
    // Two compute halves per item, plus one per critical section.
    EXPECT_EQ(countKind(actions, ActionKind::Compute), 100u + locks);
}

TEST(WorkerProgram, LockUnlockNeverNests)
{
    auto params = syntheticSmall(4, 200);
    params.lockProb = 0.9;
    auto sh = shared(params);
    WorkerProgram w(sh, 2);
    int held = 0;
    for (const auto &a : drain(w)) {
        if (a.kind == ActionKind::MutexLock) {
            EXPECT_EQ(held, 0);
            ++held;
        } else if (a.kind == ActionKind::MutexUnlock) {
            EXPECT_EQ(held, 1);
            --held;
        }
    }
    EXPECT_EQ(held, 0);
}

TEST(WorkerProgram, BarrierArrivalCountIsIndexIndependent)
{
    // Straggler or not, every worker must arrive at the barrier the
    // same number of times, or the benchmark deadlocks.
    auto params = syntheticSmall(4, 120);
    params.barrierEvery = 25;
    params.stragglerFactor = 2.0;
    auto sh = shared(params);

    std::vector<std::size_t> arrivals;
    for (std::uint32_t idx = 0; idx < 4; ++idx) {
        WorkerProgram w(sh, idx);
        arrivals.push_back(
            countKind(drain(w, idx), ActionKind::BarrierWait));
    }
    for (std::size_t i = 1; i < arrivals.size(); ++i)
        EXPECT_EQ(arrivals[i], arrivals[0]);
    EXPECT_GT(arrivals[0], 0u);
}

TEST(WorkerProgram, StragglerDoesMoreWorkPerItem)
{
    auto params = syntheticSmall(4, 30);
    params.stragglerFactor = 2.0;
    params.lockProb = 0.0;
    auto sh = shared(params);

    auto sum_instr = [&](std::uint32_t idx) {
        WorkerProgram w(sh, idx);
        std::uint64_t sum = 0;
        for (const auto &a : drain(w, idx)) {
            if (a.kind == ActionKind::Compute)
                sum += a.compute.instructions;
        }
        return sum;
    };
    EXPECT_NEAR(static_cast<double>(sum_instr(0)),
                2.0 * static_cast<double>(sum_instr(1)),
                0.01 * static_cast<double>(sum_instr(0)));
}

TEST(WorkerProgram, ClusterAddressesRespectRegions)
{
    auto params = syntheticSmall(4, 60);
    params.pHot = 1.0;  // everything in the per-thread hot region
    params.pWarm = 0.0;
    auto sh = shared(params);
    WorkerProgram w(sh, 3);
    // A cluster's addresses live in the program's buffer until its
    // next pull, so check each cluster as it is pulled.
    sim::Rng rng(4);
    ThreadContext ctx{3, rng};
    std::size_t clusters = 0;
    for (Action a = w.next(ctx); a.kind != ActionKind::Exit;
         a = w.next(ctx)) {
        if (a.kind != ActionKind::MissCluster)
            continue;
        ++clusters;
        for (std::uint32_t c = 0; c < a.cluster.chains; ++c) {
            for (std::uint64_t addr : a.cluster.chain(c)) {
                EXPECT_GE(addr, kHotBase + 3 * kHotStride);
                EXPECT_LT(addr,
                          kHotBase + 3 * kHotStride + kHotBytes);
                EXPECT_EQ(addr % 64, 0u);
            }
        }
    }
    EXPECT_GT(clusters, 0u);
}

TEST(WorkerProgram, DeterministicForSameSeed)
{
    auto sh = shared(syntheticSmall(4, 40));
    WorkerProgram w1(sh, 1), w2(sh, 1);
    auto a1 = drain(w1, 1), a2 = drain(w2, 1);
    ASSERT_EQ(a1.size(), a2.size());
    for (std::size_t i = 0; i < a1.size(); ++i)
        EXPECT_EQ(a1[i].kind, a2[i].kind);
}

TEST(MainProgram, SetupJoinsTeardownExit)
{
    auto sh = shared(syntheticSmall(4, 10));
    MainProgram m(sh);
    auto actions = drain(m, 99);
    ASSERT_EQ(actions.size(), 2u + 4u + 1u);  // 2 compute + 4 joins + exit
    EXPECT_EQ(actions[0].kind, ActionKind::Compute);
    for (int i = 1; i <= 4; ++i) {
        EXPECT_EQ(actions[static_cast<std::size_t>(i)].kind,
                  ActionKind::Join);
        EXPECT_EQ(actions[static_cast<std::size_t>(i)].joinTarget,
                  sh.workers[static_cast<std::size_t>(i - 1)]);
    }
    EXPECT_EQ(actions[5].kind, ActionKind::Compute);
    EXPECT_EQ(actions.back().kind, ActionKind::Exit);
}
