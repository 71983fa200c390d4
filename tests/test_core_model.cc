/**
 * @file
 * Unit tests for the interval-style core model: compute scaling, miss
 * clusters, store bursts, hardware-counter estimates.
 */

#include <gtest/gtest.h>

#include "test_util.hh"
#include "uarch/core.hh"

using namespace dvfs;
using namespace dvfs::uarch;

namespace {

/** A self-contained machine fragment around one or two cores. */
struct Rig {
    explicit Rig(Frequency f, std::uint32_t cores = 2)
        : core_domain("core", f), uncore("uncore", Frequency::mhz(1500)),
          mem(cores, HierarchyConfig{}, dram, uncore)
    {
        CoreConfig cc;
        for (std::uint32_t i = 0; i < cores; ++i)
            core.emplace_back(i, cc, mem, core_domain);
    }

    FreqDomain core_domain;
    FreqDomain uncore;
    Dram dram;
    CacheHierarchy mem;
    std::vector<CoreModel> core;
};

} // namespace

TEST(CoreCompute, TimeMatchesIpcAndFrequency)
{
    Rig rig(Frequency::ghz(1.0));
    PerfCounters pc;
    // 2000 instructions at IPC 2 at 1 GHz = 1000 cycles = 1 us.
    Tick end = rig.core[0].executeCompute(ComputeSpec{2000, 0, 0, 1.0},
                                          0, pc);
    EXPECT_EQ(end, kTicksPerUs);
    EXPECT_EQ(pc.instructions, 2000u);
    EXPECT_EQ(pc.busyTime, kTicksPerUs);
    EXPECT_EQ(pc.computeTime, kTicksPerUs);
}

TEST(CoreCompute, ScalesExactlyWithFrequency)
{
    Rig slow(Frequency::ghz(1.0));
    Rig fast(Frequency::ghz(4.0));
    PerfCounters a, b;
    Tick t1 = slow.core[0].executeCompute(ComputeSpec{10000}, 0, a);
    Tick t4 = fast.core[0].executeCompute(ComputeSpec{10000}, 0, b);
    EXPECT_EQ(t1, 4 * t4);
}

TEST(CoreCompute, IpcScaleSpeedsUp)
{
    Rig rig(Frequency::ghz(1.0));
    PerfCounters a, b;
    Tick base = rig.core[0].executeCompute(ComputeSpec{8000, 0, 0, 1.0},
                                           0, a);
    Tick opt = rig.core[0].executeCompute(ComputeSpec{8000, 0, 0, 2.0},
                                          0, b);
    EXPECT_EQ(base, 2 * opt);
}

TEST(CoreCompute, L3LoadsAddNonScalingTime)
{
    Rig slow(Frequency::ghz(1.0));
    Rig fast(Frequency::ghz(4.0));
    PerfCounters a, b;
    Tick t1 = slow.core[0].executeCompute(ComputeSpec{1000, 0, 20}, 0, a);
    Tick t4 = fast.core[0].executeCompute(ComputeSpec{1000, 0, 20}, 0, b);
    // The L3 component is identical; only compute shrank.
    Tick l3_part = a.trueMemTime;
    EXPECT_EQ(l3_part, b.trueMemTime);
    EXPECT_EQ(t1 - l3_part, 4 * (t4 - l3_part));
}

TEST(CoreCluster, DependentChainSerializes)
{
    Rig rig(Frequency::ghz(1.0));
    PerfCounters one, chain;

    test::ClusterChains single_addrs{{0x10000000}};
    MissClusterSpec single = single_addrs.spec();
    Tick t_single =
        rig.core[0].executeCluster(single, 0, one);

    rig.mem.reset();
    rig.dram.reset();
    test::ClusterChains deep_addrs{{0x20000000, 0x30000000, 0x40000000}};
    MissClusterSpec deep = deep_addrs.spec();
    Tick t_chain = rig.core[0].executeCluster(deep, 0, chain);

    EXPECT_GT(t_chain, 2 * t_single);
    EXPECT_GT(chain.critNonscaling, 2 * one.critNonscaling);
}

TEST(CoreCluster, ParallelChainsOverlap)
{
    Rig rig(Frequency::ghz(1.0));
    PerfCounters serial, parallel;

    test::ClusterChains deep_addrs{
        {0x10000000, 0x20000000, 0x30000000, 0x40000000}};
    MissClusterSpec deep = deep_addrs.spec();
    Tick t_serial = rig.core[0].executeCluster(deep, 0, serial);

    rig.mem.reset();
    rig.dram.reset();
    test::ClusterChains wide_addrs{{0x50000000, 0x60000000},
                                   {0x70000000, 0x80000000}};
    MissClusterSpec wide = wide_addrs.spec();
    Tick t_parallel = rig.core[0].executeCluster(wide, 0, parallel);

    // Same number of misses, but two chains overlap.
    EXPECT_LT(t_parallel, t_serial);
}

TEST(CoreCluster, OverlapInstructionsHideMemoryTime)
{
    Rig rig(Frequency::ghz(4.0));
    PerfCounters pc;
    test::ClusterChains addrs{{0x10000000}};
    MissClusterSpec spec = addrs.spec();
    spec.overlapInstructions = 4'000'000;  // compute >> memory
    Tick end = rig.core[0].executeCluster(spec, 0, pc);
    // Elapsed equals the compute time: memory fully hidden.
    Tick t_cpu = Frequency::ghz(4.0).cyclesToTicks(4'000'000 / 2.0);
    EXPECT_EQ(end, t_cpu);
    // The stall estimator sees no stall; CRIT still books the miss.
    EXPECT_EQ(pc.stallNonscaling, 0u);
    EXPECT_GT(pc.critNonscaling, 0u);
}

TEST(CoreCluster, EstimatorOrderingOnChainedMisses)
{
    // On dependent variable-latency misses with overlap:
    // stall <= leading <= crit (the paper's accuracy ladder).
    Rig rig(Frequency::ghz(2.0));
    PerfCounters pc;
    test::ClusterChains addrs{{0x10000000, 0x20000000, 0x30000000},
                              {0x40000000, 0x50000000}};
    MissClusterSpec spec = addrs.spec();
    spec.overlapInstructions = 2000;
    rig.core[0].executeCluster(spec, 0, pc);
    EXPECT_LE(pc.stallNonscaling, pc.leadingNonscaling);
    EXPECT_LE(pc.leadingNonscaling, pc.critNonscaling);
    EXPECT_EQ(pc.missClusters, 1u);
    EXPECT_EQ(pc.dramLoads, 5u);
}

TEST(CoreCluster, CacheHitsDoNotCountAsNonScaling)
{
    Rig rig(Frequency::ghz(1.0));
    PerfCounters warm;
    test::ClusterChains addrs{{0x10000000}};
    MissClusterSpec spec = addrs.spec();
    rig.core[0].executeCluster(spec, 0, warm);      // cold: DRAM
    PerfCounters hot;
    rig.core[0].executeCluster(spec, 100000, hot);  // warm: L1
    EXPECT_EQ(hot.critNonscaling, 0u);
    EXPECT_EQ(hot.leadingNonscaling, 0u);
    EXPECT_EQ(hot.l1Hits, 1u);
}

TEST(CoreBurst, EmptyBurstIsFree)
{
    Rig rig(Frequency::ghz(1.0));
    PerfCounters pc;
    EXPECT_EQ(rig.core[0].executeStoreBurst(StoreBurstSpec{0, 0, 2}, 500,
                                            pc),
              500u);
    EXPECT_EQ(pc.busyTime, 0u);
}

TEST(CoreBurst, SustainedBurstIsDrainLimited)
{
    Rig rig(Frequency::ghz(4.0));
    PerfCounters pc;
    StoreBurstSpec spec{0x100000000, 256, 2};
    Tick end = rig.core[0].executeStoreBurst(spec, 0, pc);
    // At 4 GHz dispatch of 2 stores/line takes 0.5 ns; the drain port
    // needs ~11 ns per missing line, so the burst is drain-bound and
    // most of its time shows up as SQ-full.
    double per_line_ns = ticksToNs(end) / 256.0;
    EXPECT_GT(per_line_ns, 8.0);
    EXPECT_GT(pc.sqFullTime, end / 2);
    EXPECT_EQ(pc.storeLines, 256u);
    EXPECT_EQ(pc.storeBursts, 1u);
}

TEST(CoreBurst, SqFullTimeIsRoughlyFrequencyInvariant)
{
    // The BURST premise: with wide stores the burst drains at memory
    // speed at every DVFS point, so SQ-full time measured at 1 GHz is
    // a good predictor of SQ-full time at 4 GHz.
    Rig slow(Frequency::ghz(1.0));
    Rig fast(Frequency::ghz(4.0));
    PerfCounters a, b;
    StoreBurstSpec spec{0x100000000, 512, 2};
    Tick t1 = slow.core[0].executeStoreBurst(spec, 0, a);
    Tick t4 = fast.core[0].executeStoreBurst(spec, 0, b);
    EXPECT_GT(a.sqFullTime, 0u);
    double ratio = static_cast<double>(b.sqFullTime) /
                   static_cast<double>(a.sqFullTime);
    EXPECT_GT(ratio, 0.8);
    EXPECT_LT(ratio, 1.3);
    // Total burst time shrinks only a little at 4 GHz.
    EXPECT_GT(t4 * 2, t1);
}

TEST(CoreBurst, WarmLinesDispatchLimited)
{
    Rig rig(Frequency::ghz(1.0));
    PerfCounters warm_up, replay;
    StoreBurstSpec spec{0x100000000, 64, 2};
    rig.core[0].executeStoreBurst(spec, 0, warm_up);
    // Same lines again: all on chip, no drain pressure.
    Tick start = 10 * kTicksPerMs;
    Tick end = rig.core[0].executeStoreBurst(spec, start, replay);
    Tick dispatch_only =
        Frequency::ghz(1.0).cyclesToTicks(64 * 2 / 1.0);
    EXPECT_EQ(end - start, dispatch_only);
    EXPECT_EQ(replay.sqFullTime, 0u);
}

TEST(CoreAtomic, ContendedRmwAddsFixedTransfer)
{
    Rig rig(Frequency::ghz(1.0));
    PerfCounters fast_pc, slow_pc;
    Tick t_fast = rig.core[0].atomicRmw(0, false, fast_pc);
    Tick t_slow = rig.core[0].atomicRmw(0, true, slow_pc);
    EXPECT_EQ(t_slow - t_fast, rig.mem.l3HitTicks());
    // The transfer is invisible to all three DVFS counters.
    EXPECT_EQ(slow_pc.critNonscaling, 0u);
    EXPECT_EQ(slow_pc.stallNonscaling, 0u);
}

/** Property sweep: compute-only work predicts exactly across the
 * whole frequency range (the predictors' base case). */
class ComputeScaling : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(ComputeScaling, ExactInverseFrequency)
{
    Rig ref(Frequency::ghz(1.0));
    Rig tgt(Frequency::mhz(GetParam()));
    PerfCounters a, b;
    Tick t_ref = ref.core[0].executeCompute(ComputeSpec{1'000'000}, 0, a);
    Tick t_tgt = tgt.core[0].executeCompute(ComputeSpec{1'000'000}, 0, b);
    double expect = static_cast<double>(t_ref) * 1000.0 / GetParam();
    EXPECT_NEAR(static_cast<double>(t_tgt), expect, expect * 1e-6 + 1);
}

INSTANTIATE_TEST_SUITE_P(DvfsRange, ComputeScaling,
                         ::testing::Values(1000, 1125, 1500, 2000, 2375,
                                           3000, 3625, 4000));
