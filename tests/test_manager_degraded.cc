/**
 * @file
 * EnergyManager degraded mode: a broken predictor must never steer
 * the machine. Invalid slowdown predictions (NaN, negative, absurdly
 * large) fall back to the highest operating point, and oscillating
 * decisions back the hold-off window off exponentially.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "mgr/energy_manager.hh"
#include "wl/builder.hh"
#include "wl/suite.hh"

using namespace dvfs;

namespace {

/** A manager whose per-point slowdown prediction is a fixed value. */
class StubManager : public mgr::EnergyManager
{
  public:
    StubManager(os::System &sys, pred::RunRecorder &rec,
                const power::VfTable &table,
                const mgr::ManagerConfig &cfg, double value)
        : EnergyManager(sys, rec, table, cfg), _value(value)
    {
    }

  protected:
    double
    predictSlowdown(Tick, Tick) const override
    {
        return _value;
    }

  private:
    double _value;
};

/** Alternates between "everything is free" and "everything is slow". */
class FlipFlopManager : public mgr::EnergyManager
{
  public:
    using EnergyManager::EnergyManager;

  protected:
    double
    predictSlowdown(Tick, Tick) const override
    {
        return decisions().size() % 2 == 0 ? 0.0 : 10.0;
    }
};

struct RunResultSummary {
    std::vector<mgr::EnergyManager::Decision> decisions;
    std::uint64_t fallbacks = 0;
    std::uint64_t quanta = 0;
    std::uint32_t backoff = 1;
    bool finished = false;
};

template <typename Manager, typename... Extra>
RunResultSummary
runWith(Extra... extra)
{
    power::VfTable table = power::VfTable::haswell();
    os::SystemConfig sys_cfg = wl::defaultSystemConfig(table.highest());
    wl::BenchInstance inst =
        wl::buildBenchmark(wl::syntheticSmall(2, 300), sys_cfg);

    pred::RunRecorder rec(*inst.sys);
    inst.sys->addListener(&rec);

    mgr::ManagerConfig cfg;
    cfg.quantum = 10 * kTicksPerUs;
    Manager manager(*inst.sys, rec, table, cfg, extra...);
    manager.attach();

    RunResultSummary out;
    out.finished = inst.sys->run().finished;
    out.decisions = manager.decisions();
    out.fallbacks = manager.fallbacks();
    out.quanta = manager.quanta();
    out.backoff = manager.backoff();
    return out;
}

void
expectAllFallbackToHighest(const RunResultSummary &r)
{
    const Frequency highest = power::VfTable::haswell().highest();
    ASSERT_TRUE(r.finished);
    ASSERT_GT(r.decisions.size(), 0u);
    EXPECT_GT(r.fallbacks, 0u);
    for (const auto &d : r.decisions) {
        EXPECT_EQ(d.chosen, highest);
        EXPECT_TRUE(d.fallback);
        EXPECT_EQ(d.predictedSlowdown, 0.0);
    }
}

} // namespace

TEST(ManagerDegraded, NanPredictionFallsBackToHighest)
{
    auto r = runWith<StubManager, double>(
        std::numeric_limits<double>::quiet_NaN());
    expectAllFallbackToHighest(r);
}

TEST(ManagerDegraded, InfinitePredictionFallsBackToHighest)
{
    auto r = runWith<StubManager, double>(
        std::numeric_limits<double>::infinity());
    expectAllFallbackToHighest(r);
}

TEST(ManagerDegraded, NegativePredictionFallsBackToHighest)
{
    auto r = runWith<StubManager, double>(-0.5);
    expectAllFallbackToHighest(r);
}

TEST(ManagerDegraded, AbsurdPredictionFallsBackToHighest)
{
    auto r = runWith<StubManager, double>(1e6);
    expectAllFallbackToHighest(r);
}

TEST(ManagerDegraded, TinyNegativeRoundingIsTolerated)
{
    // -0.001 is rounding noise, not a broken predictor: it reads as
    // "no slowdown" and legitimately selects the lowest point.
    auto r = runWith<StubManager, double>(-0.001);
    ASSERT_TRUE(r.finished);
    EXPECT_EQ(r.fallbacks, 0u);
    ASSERT_GT(r.decisions.size(), 0u);
    EXPECT_EQ(r.decisions.front().chosen,
              power::VfTable::haswell().lowest());
}

TEST(ManagerDegraded, HealthyPredictorNeverFallsBack)
{
    auto r = runWith<mgr::EnergyManager>();
    ASSERT_TRUE(r.finished);
    EXPECT_EQ(r.fallbacks, 0u);
    for (const auto &d : r.decisions)
        EXPECT_FALSE(d.fallback);
}

TEST(ManagerDegraded, OscillationTriggersBackoff)
{
    auto r = runWith<FlipFlopManager>();
    ASSERT_TRUE(r.finished);
    ASSERT_GT(r.quanta, 8u);
    // The A->B->A thrash must have raised the hold-off multiplier...
    EXPECT_GT(r.backoff, 1u);
    // ...so some quanta skipped their decision entirely.
    EXPECT_LT(r.decisions.size(), r.quanta);
}
