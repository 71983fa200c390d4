/**
 * @file
 * Tests for the per-thread scaling laws (pred/scaling.hh).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "pred/scaling.hh"
#include "sim/rng.hh"

using namespace dvfs;
using namespace dvfs::pred;

namespace {

uarch::PerfCounters
counters(Tick busy, Tick stall, Tick leading, Tick crit, Tick sq,
         Tick true_mem = 0)
{
    uarch::PerfCounters c;
    c.busyTime = busy;
    c.stallNonscaling = stall;
    c.leadingNonscaling = leading;
    c.critNonscaling = crit;
    c.sqFullTime = sq;
    c.trueMemTime = true_mem;
    return c;
}

} // namespace

TEST(Scaling, EstimatorSelection)
{
    auto c = counters(100, 10, 20, 30, 5, 40);
    EXPECT_EQ(nonscalingTime(c, {BaseEstimator::StallTime, false}), 10u);
    EXPECT_EQ(nonscalingTime(c, {BaseEstimator::LeadingLoads, false}), 20u);
    EXPECT_EQ(nonscalingTime(c, {BaseEstimator::Crit, false}), 30u);
    EXPECT_EQ(nonscalingTime(c, {BaseEstimator::Oracle, false}), 40u);
}

TEST(Scaling, BurstAddsSqTime)
{
    auto c = counters(100, 10, 20, 30, 5);
    EXPECT_EQ(nonscalingTime(c, {BaseEstimator::Crit, true}), 35u);
    EXPECT_EQ(nonscalingTime(c, {BaseEstimator::StallTime, true}), 15u);
}

TEST(Scaling, RatioOneIsIdentity)
{
    auto c = counters(1000, 0, 0, 300, 50);
    for (auto base : {BaseEstimator::StallTime, BaseEstimator::Crit}) {
        EXPECT_EQ(predictSpan(1000, c, {base, false}, 1.0), 1000u);
        EXPECT_EQ(predictSpan(1000, c, {base, true}, 1.0), 1000u);
    }
}

TEST(Scaling, PureScalingWorkDividesExactly)
{
    auto c = counters(1000, 0, 0, 0, 0);
    EXPECT_EQ(predictSpan(1000, c, {BaseEstimator::Crit, false}, 0.25),
              250u);
    EXPECT_EQ(predictSpan(1000, c, {BaseEstimator::Crit, false}, 4.0),
              4000u);
}

TEST(Scaling, NonScalingPartIsInvariant)
{
    auto c = counters(1000, 0, 0, 400, 0);
    // 600 scaling + 400 non-scaling.
    EXPECT_EQ(predictSpan(1000, c, {BaseEstimator::Crit, false}, 0.5),
              300u + 400u);
    EXPECT_EQ(predictSpan(1000, c, {BaseEstimator::Crit, false}, 2.0),
              1200u + 400u);
}

TEST(Scaling, NonScalingClampedToSpan)
{
    // CRIT can overestimate (fully-overlapped misses): the model must
    // clamp to the observed span rather than go negative.
    auto c = counters(1000, 0, 0, 5000, 0);
    EXPECT_EQ(predictSpan(1000, c, {BaseEstimator::Crit, false}, 0.25),
              1000u);
    EXPECT_EQ(predictSpan(1000, c, {BaseEstimator::Crit, false}, 4.0),
              1000u);
}

TEST(Scaling, ModelSpecNames)
{
    EXPECT_EQ((ModelSpec{BaseEstimator::Crit, false}).name(), "CRIT");
    EXPECT_EQ((ModelSpec{BaseEstimator::Crit, true}).name(), "CRIT+BURST");
    EXPECT_EQ((ModelSpec{BaseEstimator::LeadingLoads, false}).name(), "LL");
    EXPECT_EQ((ModelSpec{BaseEstimator::StallTime, true}).name(),
              "STALL+BURST");
}

/** Property: predictions are monotone in the ratio. */
class ScalingMonotone : public ::testing::TestWithParam<double>
{
};

TEST_P(ScalingMonotone, MoreSlowdownMoreTime)
{
    auto c = counters(1000, 100, 150, 200, 50);
    double r = GetParam();
    ModelSpec spec{BaseEstimator::Crit, true};
    Tick at_r = predictSpan(1000, c, spec, r);
    Tick at_2r = predictSpan(1000, c, spec, 2 * r);
    EXPECT_LT(at_r, at_2r);
    // And bounded by the all-scaling / all-nonscaling extremes.
    EXPECT_GE(at_r, std::min<Tick>(1000, nonscalingTime(c, spec)));
    EXPECT_LE(at_r,
              static_cast<Tick>(1000 * std::max(1.0, r)) + 1);
}

INSTANTIATE_TEST_SUITE_P(Ratios, ScalingMonotone,
                         ::testing::Values(0.25, 0.5, 1.0, 1.5, 2.0));

TEST(Scaling, RoundHalfAwayMatchesLlround)
{
    auto llround = [](double x) { return static_cast<Tick>(std::llround(x)); };
    const double two52 = std::ldexp(1.0, 52);
    const double two53 = std::ldexp(1.0, 53);
    for (double x : {0.0, 0.5, 0.49999999999999994, 1.5, 2.5, two52 - 1,
                     two52 - 0.5, two52, two52 + 1, two53 - 1, two53,
                     two53 + 2}) {
        EXPECT_EQ(roundHalfAway(x), llround(x)) << x;
    }

    // Seeded sweep: every magnitude up to 2^62, exact halves, and the
    // neighbouring doubles on either side of a half.
    sim::Rng rng(0x5eed2026);
    std::uint64_t mismatches = 0;
    double first_bad = 0.0;
    for (int i = 0; i < 10'000'000; ++i) {
        const std::uint64_t bits = rng.next();
        const double half = static_cast<double>(bits >> 13) + 0.5;
        double x = 0.0;
        switch (i % 4) {
          case 0:
            x = std::ldexp(rng.nextDouble(), static_cast<int>(bits % 63));
            break;
          case 1: x = half; break;
          case 2: x = std::nextafter(half, 0.0); break;
          case 3: x = std::nextafter(half, two53); break;
        }
        if (roundHalfAway(x) != llround(x) && mismatches++ == 0)
            first_bad = x;
    }
    EXPECT_EQ(mismatches, 0u) << "first mismatch at " << first_bad;
}
