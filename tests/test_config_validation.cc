/**
 * @file
 * Configuration validation: every degenerate configuration must be
 * rejected at construction with a clear message, never silently
 * produce a meaningless simulation.
 */

#include <gtest/gtest.h>

#include <limits>

#include "mgr/energy_manager.hh"
#include "power/vf_table.hh"
#include "pred/record.hh"
#include "wl/builder.hh"
#include "wl/suite.hh"

using namespace dvfs;

namespace {

/** A minimal live machine for manager-construction tests. */
struct ManagerFixture {
    os::System sys;
    pred::RunRecorder rec;
    power::VfTable table;

    ManagerFixture()
        : sys(wl::defaultSystemConfig(Frequency::ghz(3.4))), rec(sys),
          table(power::VfTable::haswell())
    {
    }

    void
    construct(const mgr::ManagerConfig &cfg)
    {
        mgr::EnergyManager mgr(sys, rec, table, cfg);
    }
};

} // namespace

TEST(ManagerConfigDeathTest, ZeroQuantumIsFatal)
{
    ManagerFixture f;
    mgr::ManagerConfig cfg;
    cfg.quantum = 0;
    EXPECT_EXIT(f.construct(cfg), ::testing::ExitedWithCode(1),
                "quantum");
}

TEST(ManagerConfigDeathTest, ZeroHoldOffIsFatal)
{
    ManagerFixture f;
    mgr::ManagerConfig cfg;
    cfg.holdOff = 0;
    EXPECT_EXIT(f.construct(cfg), ::testing::ExitedWithCode(1),
                "hold-off");
}

TEST(ManagerConfigDeathTest, NegativeSlowdownIsFatal)
{
    ManagerFixture f;
    mgr::ManagerConfig cfg;
    cfg.tolerableSlowdown = -0.05;
    EXPECT_EXIT(f.construct(cfg), ::testing::ExitedWithCode(1),
                "slowdown");
}

TEST(ManagerConfigDeathTest, NanSlowdownIsFatal)
{
    ManagerFixture f;
    mgr::ManagerConfig cfg;
    cfg.tolerableSlowdown = std::numeric_limits<double>::quiet_NaN();
    EXPECT_EXIT(f.construct(cfg), ::testing::ExitedWithCode(1),
                "slowdown");
}

TEST(VfTableDeathTest, EmptyTableIsFatal)
{
    EXPECT_EXIT(power::VfTable({}), ::testing::ExitedWithCode(1),
                "at least one operating point");
}

TEST(WorkloadDeathTest, ZeroWorkItemsIsFatal)
{
    auto params = wl::syntheticSmall(2, 10);
    params.workItems = 0;
    EXPECT_EXIT(wl::buildBenchmark(
                    params, wl::defaultSystemConfig(Frequency::ghz(1.0))),
                ::testing::ExitedWithCode(1), "work item");
}

TEST(WorkloadDeathTest, ZeroAllocChunkIsFatal)
{
    auto params = wl::syntheticSmall(2, 10);
    params.allocChunkBytes = 0;
    EXPECT_EXIT(wl::buildBenchmark(
                    params, wl::defaultSystemConfig(Frequency::ghz(1.0))),
                ::testing::ExitedWithCode(1), "allocChunkBytes");
}

TEST(WorkloadDeathTest, BadProbabilitiesAreFatal)
{
    auto params = wl::syntheticSmall(2, 10);
    params.lockProb = 1.5;
    EXPECT_EXIT(wl::buildBenchmark(
                    params, wl::defaultSystemConfig(Frequency::ghz(1.0))),
                ::testing::ExitedWithCode(1), "probabilities");
}

TEST(WorkloadDeathTest, LocksWithoutLockPoolIsFatal)
{
    auto params = wl::syntheticSmall(2, 10);
    params.numLocks = 0;
    EXPECT_EXIT(wl::buildBenchmark(
                    params, wl::defaultSystemConfig(Frequency::ghz(1.0))),
                ::testing::ExitedWithCode(1), "locks");
}

TEST(WorkloadDeathTest, ZeroCoresIsFatal)
{
    auto params = wl::syntheticSmall(2, 10);
    auto cfg = wl::defaultSystemConfig(Frequency::ghz(1.0));
    cfg.cores = 0;
    EXPECT_EXIT(wl::buildBenchmark(params, cfg),
                ::testing::ExitedWithCode(1), "core");
}
