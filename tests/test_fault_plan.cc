/**
 * @file
 * FaultPlan determinism: the whole point of the fault subsystem is
 * that a schedule is a pure function of its seed, so these tests pin
 * the replay contract down hard.
 */

#include <gtest/gtest.h>

#include <vector>

#include "fault/fault_plan.hh"

using namespace dvfs;
using namespace dvfs::fault;

namespace {

FaultConfig
everythingOn(std::uint64_t seed)
{
    FaultConfig cfg;
    cfg.seed = seed;
    cfg.classes.set();
    return cfg;
}

/** Drive every query with a fixed tick sequence; gather the results. */
std::vector<std::uint64_t>
drive(FaultPlan &plan, int rounds)
{
    std::vector<std::uint64_t> out;
    Tick t = 0;
    for (int i = 0; i < rounds; ++i) {
        t += kTicksPerUs;
        out.push_back(plan.dramReadSpike(t));
        out.push_back(plan.dramBankStall(t));
        out.push_back(plan.dvfsReject(t) ? 1 : 0);
        out.push_back(plan.dvfsExtraDelay(t));
        out.push_back(plan.preemptNow(t) ? 1 : 0);
        out.push_back(plan.gcExtraClusters(t));
        out.push_back(plan.nextSpuriousWakeDelay());
        out.push_back(plan.pickVictim(7));
    }
    return out;
}

} // namespace

TEST(FaultPlan, DefaultConfigInjectsNothing)
{
    FaultConfig cfg = FaultConfig::none();
    EXPECT_TRUE(cfg.classes.none());

    FaultPlan plan(cfg);
    for (Tick t = 0; t < 100; ++t) {
        EXPECT_EQ(plan.dramReadSpike(t), 0u);
        EXPECT_EQ(plan.dramBankStall(t), 0u);
        EXPECT_FALSE(plan.dvfsReject(t));
        EXPECT_EQ(plan.dvfsExtraDelay(t), 0u);
        EXPECT_FALSE(plan.preemptNow(t));
        EXPECT_EQ(plan.gcExtraClusters(t), 0u);
        EXPECT_EQ(plan.nextSpuriousWakeDelay(), 0u);
    }
    EXPECT_EQ(plan.totalInjected(), 0u);
    EXPECT_TRUE(plan.trace().empty());
}

TEST(FaultPlan, SameSeedReplaysBitIdentically)
{
    FaultPlan a(everythingOn(99));
    FaultPlan b(everythingOn(99));
    EXPECT_EQ(drive(a, 500), drive(b, 500));
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
    EXPECT_EQ(a.totalInjected(), b.totalInjected());
    EXPECT_GT(a.totalInjected(), 0u);
    EXPECT_EQ(a.trace(), b.trace());
}

TEST(FaultPlan, DifferentSeedDiverges)
{
    FaultPlan a(everythingOn(1));
    FaultPlan b(everythingOn(2));
    EXPECT_NE(drive(a, 500), drive(b, 500));
    EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(FaultPlan, ClassStreamsAreIndependent)
{
    // Enabling an extra class must not perturb another class's
    // schedule: each class draws from its own split stream.
    FaultConfig spike_only =
        FaultConfig::only(FaultClass::DramLatencySpike, 7);

    FaultConfig spike_and_preempt = spike_only;
    spike_and_preempt.classes.set(
        static_cast<std::size_t>(FaultClass::PreemptJitter));

    FaultPlan a(spike_only);
    FaultPlan b(spike_and_preempt);

    for (int i = 0; i < 1000; ++i) {
        Tick t = static_cast<Tick>(i + 1) * kTicksPerUs;
        // Interleave preempt queries on b only; spikes must agree.
        b.preemptNow(t);
        EXPECT_EQ(a.dramReadSpike(t), b.dramReadSpike(t));
    }
    EXPECT_GT(a.injected(FaultClass::DramLatencySpike), 0u);
    EXPECT_EQ(a.injected(FaultClass::DramLatencySpike),
              b.injected(FaultClass::DramLatencySpike));
    EXPECT_GT(b.injected(FaultClass::PreemptJitter), 0u);
}

TEST(FaultPlan, OnlyEnablesExactlyOneClass)
{
    const FaultClass classes[] = {
        FaultClass::DramLatencySpike, FaultClass::DramBankStall,
        FaultClass::DvfsDelay,        FaultClass::DvfsReject,
        FaultClass::SpuriousWake,     FaultClass::PreemptJitter,
        FaultClass::GcInflation,
    };
    for (FaultClass c : classes) {
        FaultConfig cfg = FaultConfig::only(c);
        EXPECT_TRUE(cfg.enabled(c)) << faultClassName(c);
        EXPECT_EQ(cfg.classes.count(), 1u) << faultClassName(c);
    }
}

TEST(FaultPlan, PreemptSpacingIsHonoured)
{
    // Query every 100 ns: at kPreemptProb the unspaced gap between
    // fires would average 2 us, well inside kPreemptMinSpacing.
    FaultPlan plan(FaultConfig::only(FaultClass::PreemptJitter));
    std::vector<Tick> fired;
    for (Tick t = 1; t <= 2000; ++t) {
        if (plan.preemptNow(t * 100 * kTicksPerNs))
            fired.push_back(t * 100 * kTicksPerNs);
    }
    ASSERT_GE(fired.size(), 2u);
    for (std::size_t i = 1; i < fired.size(); ++i)
        EXPECT_GE(fired[i] - fired[i - 1], FaultPlan::kPreemptMinSpacing);
}

TEST(FaultPlanDeathTest, VictimPickFromEmptySetPanics)
{
    FaultPlan plan(everythingOn(3));
    EXPECT_DEATH(plan.pickVictim(0), "empty");
}
