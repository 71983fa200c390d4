/**
 * @file
 * Tests for the V/f table, power model, and energy meter.
 */

#include <gtest/gtest.h>

#include "exp/experiment.hh"
#include "power/power_model.hh"
#include "power/vf_table.hh"

using namespace dvfs;
using namespace dvfs::power;

TEST(VfTable, HaswellCoversTheDvfsRange)
{
    auto t = VfTable::haswell();
    EXPECT_EQ(t.lowest(), Frequency::ghz(1.0));
    EXPECT_EQ(t.highest(), Frequency::ghz(4.0));
    EXPECT_EQ(t.size(), 25u);  // 125 MHz steps inclusive
    for (std::size_t i = 1; i < t.points().size(); ++i) {
        EXPECT_EQ(t.points()[i].freq.toMHz() -
                      t.points()[i - 1].freq.toMHz(),
                  125u);
    }
}

TEST(VfTable, CoarseStepVariant)
{
    auto t = VfTable::haswell(500);
    EXPECT_EQ(t.size(), 7u);
    EXPECT_EQ(t.highest(), Frequency::ghz(4.0));
    const std::vector<Frequency> f = t.frequencies();
    ASSERT_EQ(f.size(), t.size());
    for (std::size_t i = 0; i < f.size(); ++i)
        EXPECT_EQ(f[i], t.points()[i].freq);
}

TEST(VfTable, VoltageIsMonotone)
{
    auto t = VfTable::haswell();
    double prev = 0.0;
    for (const auto &p : t.points()) {
        EXPECT_GE(p.volts, prev);
        prev = p.volts;
    }
    EXPECT_NEAR(t.voltageAt(Frequency::ghz(1.0)), 0.80, 1e-9);
    EXPECT_NEAR(t.voltageAt(Frequency::ghz(4.0)), 1.25, 1e-9);
}

TEST(VfTable, VoltageInterpolatesAndClamps)
{
    auto t = VfTable::haswell(1000);  // 1.0, 2.0, 3.0, 4.0 GHz
    double v15 = t.voltageAt(Frequency::ghz(1.5));
    EXPECT_GT(v15, t.voltageAt(Frequency::ghz(1.0)));
    EXPECT_LT(v15, t.voltageAt(Frequency::ghz(2.0)));
    EXPECT_DOUBLE_EQ(t.voltageAt(Frequency::mhz(500)),
                     t.voltageAt(Frequency::ghz(1.0)));
    EXPECT_DOUBLE_EQ(t.voltageAt(Frequency::ghz(5.0)),
                     t.voltageAt(Frequency::ghz(4.0)));
}

TEST(VfTable, CeilPoint)
{
    auto t = VfTable::haswell();
    EXPECT_EQ(t.ceilPoint(Frequency::mhz(1010)).freq, Frequency::mhz(1125));
    EXPECT_EQ(t.ceilPoint(Frequency::mhz(1125)).freq, Frequency::mhz(1125));
    EXPECT_EQ(t.ceilPoint(Frequency::ghz(9.0)).freq, Frequency::ghz(4.0));
}

TEST(VfTableDeathTest, RejectsUnorderedPoints)
{
    std::vector<OperatingPoint> pts = {{Frequency::ghz(2.0), 1.0},
                                       {Frequency::ghz(1.0), 0.8}};
    EXPECT_EXIT(VfTable t(std::move(pts)), ::testing::ExitedWithCode(1),
                "ascend");
}

TEST(PowerModel, DynamicPowerScalesWithV2F)
{
    using M = PowerModel;
    double p1 = M::coreDynamicWatts(4, Frequency::ghz(1.0), 0.8, 1.0);
    double p2 = M::coreDynamicWatts(4, Frequency::ghz(2.0), 0.8, 1.0);
    EXPECT_NEAR(p2 / p1, 2.0, 1e-9);
    double pv = M::coreDynamicWatts(4, Frequency::ghz(1.0), 1.6, 1.0);
    EXPECT_NEAR(pv / p1, 4.0, 1e-9);
}

TEST(PowerModel, IdleCoresStillBurnResidual)
{
    using M = PowerModel;
    double idle = M::coreDynamicWatts(4, Frequency::ghz(2.0), 1.0, 0.0);
    double busy = M::coreDynamicWatts(4, Frequency::ghz(2.0), 1.0, 1.0);
    EXPECT_GT(idle, 0.0);
    EXPECT_NEAR(idle / busy, M::kIdleActivity, 1e-9);
}

TEST(PowerModel, TotalIncludesAllComponents)
{
    using M = PowerModel;
    double total = M::totalWatts(4, Frequency::ghz(4.0), 1.25, 1.0);
    EXPECT_GT(total, M::coreDynamicWatts(4, Frequency::ghz(4.0), 1.25, 1.0));
    EXPECT_GT(total, M::kUncoreWatts);
}

TEST(PowerModel, PlausibleAbsoluteRange)
{
    // A quad-core Haswell-class chip: tens of watts at full tilt.
    double peak = PowerModel::totalWatts(4, Frequency::ghz(4.0), 1.25, 1.0);
    EXPECT_GT(peak, 25.0);
    EXPECT_LT(peak, 120.0);
}

TEST(EnergyMeter, RunAtLowerFrequencyUsesLessEnergyWhenMemoryBound)
{
    auto params = wl::syntheticSmall(2, 60);
    auto fast = exp::runFixed(params, Frequency::ghz(4.0));
    auto slow = exp::runFixed(params, Frequency::ghz(3.0));
    EXPECT_GT(fast.energy.total(), 0.0);
    EXPECT_GT(slow.energy.total(), 0.0);
    // Energy breakdown components are all non-negative and sum.
    for (const auto *e : {&fast.energy, &slow.energy}) {
        EXPECT_GE(e->coreDynamic, 0.0);
        EXPECT_GE(e->coreStatic, 0.0);
        EXPECT_GE(e->uncore, 0.0);
        EXPECT_GE(e->dram, 0.0);
        EXPECT_NEAR(e->total(),
                    e->coreDynamic + e->coreStatic + e->uncore + e->dram,
                    1e-12);
    }
}

TEST(EnergyMeter, MidRunTransitionSplitsAccounting)
{
    // Two segments at different frequencies integrate to more than
    // the same wall time at the lower one alone would.
    auto params = wl::syntheticSmall(2, 80);
    auto out = exp::runFixed(params, Frequency::ghz(1.0));
    EXPECT_GT(out.energy.coreDynamic, 0.0);
    // Static power accrues with wall time.
    double expect_static =
        power::PowerModel::coreStaticWatts(4, 0.80) *
        ticksToSeconds(out.totalTime);
    EXPECT_NEAR(out.energy.coreStatic, expect_static,
                expect_static * 0.01);
}
