/**
 * @file
 * Tests for the benchmark suite and the workload builder.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "exp/experiment.hh"
#include "wl/builder.hh"
#include "wl/suite.hh"

using namespace dvfs;
using namespace dvfs::wl;

TEST(Suite, HasTheSevenDacapoBenchmarks)
{
    auto suite = dacapoSuite();
    ASSERT_EQ(suite.size(), 7u);
    const char *expected[] = {"xalan",        "pmd",    "pmd.scale",
                              "lusearch",     "lusearch.fix", "avrora",
                              "sunflow"};
    for (std::size_t i = 0; i < suite.size(); ++i)
        EXPECT_EQ(suite[i].name, expected[i]);
}

TEST(Suite, ClassificationMatchesTableOne)
{
    for (const auto &p : dacapoSuite()) {
        bool expect_memory = p.name == "xalan" || p.name == "pmd" ||
                             p.name == "pmd.scale" || p.name == "lusearch";
        EXPECT_EQ(p.memoryIntensive, expect_memory) << p.name;
    }
}

TEST(Suite, AvroraHasSixThreads)
{
    EXPECT_EQ(benchmarkByName("avrora").appThreads, 6u);
    EXPECT_EQ(benchmarkByName("xalan").appThreads, 4u);
}

TEST(Suite, LookupByName)
{
    EXPECT_EQ(benchmarkByName("sunflow").name, "sunflow");
    EXPECT_EQ(benchmarkByName("synthetic").name, "synthetic");
}

TEST(SuiteDeathTest, UnknownBenchmarkIsFatal)
{
    EXPECT_EXIT(benchmarkByName("quake3"), ::testing::ExitedWithCode(1),
                "unknown benchmark");
}

TEST(Suite, MemoryIntensiveSubset)
{
    const auto suite = dacapoSuite();
    EXPECT_EQ(std::count_if(suite.begin(), suite.end(),
                            [](const WorkloadParams &p) {
                                return p.memoryIntensive;
                            }),
              4);
}

TEST(Builder, WiresThreadsRuntimeAndLocks)
{
    auto params = syntheticSmall(3, 10);
    auto inst = buildBenchmark(params, defaultSystemConfig(
                                           Frequency::ghz(1.0)));
    ASSERT_TRUE(inst.sys);
    ASSERT_TRUE(inst.runtime);
    // 3 workers + main + GC workers.
    EXPECT_EQ(inst.sys->numThreads(),
              3u + 1u + rt::Runtime::kGcThreads);
    EXPECT_NE(inst.mainTid, os::kNoThread);
    EXPECT_EQ(inst.shared->workers.size(), 3u);
}

TEST(Builder, SyntheticRunsAndAllocates)
{
    auto params = syntheticSmall(2, 40);
    auto out = exp::runFixed(params, Frequency::ghz(2.0));
    EXPECT_GT(out.totalTime, 0u);
    EXPECT_GT(out.allocatedBytes, 0u);
    EXPECT_GT(out.totals.missClusters, 0u);
}

TEST(Builder, IdenticalSeedsAreBitwiseDeterministic)
{
    auto params = syntheticSmall(4, 60);
    auto a = exp::runFixed(params, Frequency::ghz(1.0));
    auto b = exp::runFixed(params, Frequency::ghz(1.0));
    EXPECT_EQ(a.totalTime, b.totalTime);
    EXPECT_EQ(a.totals.instructions, b.totals.instructions);
    EXPECT_EQ(a.totals.busyTime, b.totals.busyTime);
    EXPECT_EQ(a.record.epochs.size(), b.record.epochs.size());
}

TEST(Builder, DifferentSeedsChangeTiming)
{
    auto params = syntheticSmall(4, 60);
    exp::RunOptions o1, o2;
    o1.seed = 1;
    o2.seed = 2;
    auto a = exp::runFixed(params, Frequency::ghz(1.0), o1);
    auto b = exp::runFixed(params, Frequency::ghz(1.0), o2);
    EXPECT_NE(a.totalTime, b.totalTime);
}

TEST(Builder, WorkIsFrequencyInvariant)
{
    // The replay property: the instruction stream and allocation
    // volume are identical at every DVFS setting.
    auto params = syntheticSmall(2, 50);
    auto slow = exp::runFixed(params, Frequency::ghz(1.0));
    auto fast = exp::runFixed(params, Frequency::ghz(4.0));
    EXPECT_EQ(slow.allocatedBytes, fast.allocatedBytes);
    EXPECT_EQ(slow.totals.missClusters, fast.totals.missClusters);
    EXPECT_EQ(slow.totals.storeLines, fast.totals.storeLines);
}

TEST(BuilderDeathTest, ZeroWorkersIsFatal)
{
    auto params = syntheticSmall(1, 10);
    params.appThreads = 0;
    EXPECT_EXIT(buildBenchmark(params,
                               defaultSystemConfig(Frequency::ghz(1.0))),
                ::testing::ExitedWithCode(1), "worker");
}
