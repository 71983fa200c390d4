/**
 * @file
 * Tests for the whole-application predictors (M+CRIT, COOP, DEP) on
 * hand-built run records, including the paper's Algorithm 1.
 */

#include <gtest/gtest.h>

#include "pred/predictors.hh"
#include "pred/registry.hh"

using namespace dvfs;
using namespace dvfs::pred;

namespace {

uarch::PerfCounters
busyWithCrit(Tick busy, Tick crit, Tick sq = 0)
{
    uarch::PerfCounters c;
    c.busyTime = busy;
    c.critNonscaling = crit;
    c.sqFullTime = sq;
    return c;
}

EpochThread
active(os::ThreadId tid, Tick busy, Tick crit = 0, Tick sq = 0)
{
    EpochThread et;
    et.tid = tid;
    et.delta = busyWithCrit(busy, crit, sq);
    return et;
}

/** Append an epoch over [start, end) with @p threads to @p rec. */
void
epoch(RunRecord &rec, Tick start, Tick end,
      std::initializer_list<EpochThread> threads,
      os::ThreadId stall = os::kNoThread)
{
    rec.epochs.open(start, end,
                    stall != os::kNoThread ? os::SyncEventKind::FutexWait
                                           : os::SyncEventKind::FutexWake,
                    stall);
    for (const EpochThread &et : threads)
        rec.epochs.addRow(et.tid, et.delta);
}

ThreadSummary
thread(os::ThreadId tid, Tick spawn, Tick exit, Tick busy, Tick crit,
       bool service = false)
{
    ThreadSummary s;
    s.tid = tid;
    s.service = service;
    s.spawnTick = spawn;
    s.exitTick = exit;
    s.totals = busyWithCrit(busy, crit);
    return s;
}

RunRecord
simpleRecord()
{
    RunRecord rec;
    rec.baseFreq = Frequency::ghz(1.0);
    rec.totalTime = 1000;
    return rec;
}

} // namespace

// ------------------------------------------------------------- M+CRIT

TEST(MCrit, PicksSlowestPredictedThread)
{
    RunRecord rec = simpleRecord();
    // Thread 0: all scaling. Thread 1: half non-scaling.
    rec.threads.push_back(thread(0, 0, 1000, 900, 0));
    rec.threads.push_back(thread(1, 0, 1000, 900, 500));

    MCritPredictor p({BaseEstimator::Crit, false});
    // At ratio 0.5 (double frequency): t0 -> 500, t1 -> 250+500=750.
    EXPECT_EQ(p.predict(rec, Frequency::ghz(2.0)), 750u);
    // At ratio 2 (half frequency): t0 -> 2000, t1 -> 1000+500=1500.
    EXPECT_EQ(p.predict(rec, Frequency::mhz(500)), 2000u);
}

TEST(MCrit, WaitTimeLandsInScalingComponent)
{
    RunRecord rec = simpleRecord();
    // A thread alive for 1000 but busy only 400 (waits 600). M+CRIT
    // scales the full span — the paper's motivating flaw.
    rec.threads.push_back(thread(0, 0, 1000, 400, 0));
    MCritPredictor p({BaseEstimator::Crit, false});
    EXPECT_EQ(p.predict(rec, Frequency::mhz(500)), 2000u);
}

TEST(MCrit, SkipsPureCoordinatorThreads)
{
    RunRecord rec = simpleRecord();
    // A driver parked in join the whole run: busy 2% of lifetime.
    rec.threads.push_back(thread(0, 0, 1000, 20, 0));
    rec.threads.push_back(thread(1, 0, 800, 700, 100));
    MCritPredictor p({BaseEstimator::Crit, false});
    // Only thread 1 is considered: (800-100)*2 + 100.
    EXPECT_EQ(p.predict(rec, Frequency::mhz(500)), 1500u);
}

// --------------------------------------------------------------- COOP

TEST(Coop, SplitsAtGcBoundaries)
{
    RunRecord rec = simpleRecord();
    rec.totalTime = 1000;
    // App phase [0,600): thread 0 active. GC phase [600,1000):
    // thread 1 (service, alive only for the collection) active, fully
    // non-scaling.
    rec.threads.push_back(thread(0, 0, 1000, 600, 0));
    rec.threads.push_back(thread(1, 600, 1000, 400, 400, true));
    rec.gcMarks.push_back(GcPhaseMark{600, true});
    epoch(rec, 0, 600, {active(0, 600)});
    epoch(rec, 600, 1000, {active(1, 400, 400)});

    CoopPredictor p({BaseEstimator::Crit, false});
    // At double frequency: app 600/2 = 300; GC stays 400.
    EXPECT_EQ(p.predict(rec, Frequency::ghz(2.0)), 700u);
    // M+CRIT on the same record mis-handles the GC wait: thread 0's
    // span is the whole run with zero non-scaling -> 500.
    MCritPredictor naive({BaseEstimator::Crit, false});
    EXPECT_EQ(naive.predict(rec, Frequency::ghz(2.0)), 500u);
}

// ---------------------------------------------------------------- DEP

TEST(Dep, PerEpochSumsCriticalThreads)
{
    RunRecord rec = simpleRecord();
    epoch(rec, 0, 400, {active(0, 400), active(1, 200)});
    epoch(rec, 400, 1000, {active(0, 300),
                                           active(1, 600)});
    DepPredictor per_epoch({BaseEstimator::Crit, false}, false);
    // Ratio 1: sum of per-epoch maxima = 400 + 600.
    EXPECT_EQ(per_epoch.predict(rec, Frequency::ghz(1.0)), 1000u);
    // Ratio 0.5: 200 + 300.
    EXPECT_EQ(per_epoch.predict(rec, Frequency::ghz(2.0)), 500u);
}

TEST(Dep, EmptyEpochIsNonScaling)
{
    RunRecord rec = simpleRecord();
    epoch(rec, 0, 250, {});
    epoch(rec, 250, 1000, {active(0, 750)});
    DepPredictor p({BaseEstimator::Crit, false}, true);
    // The empty (all-asleep) gap does not scale.
    EXPECT_EQ(p.predict(rec, Frequency::ghz(2.0)), 250u + 375u);
}

TEST(Dep, AcrossEpochCtpBanksSlack)
{
    // The paper's Figure 2(d) situation: thread 1 is not critical in
    // epoch 0 (arrives early at the boundary, which is NOT a barrier
    // for it) and its head start must carry into epoch 1.
    RunRecord rec = simpleRecord();
    // Epoch 0 closed by thread 0's sleep; thread 1 keeps running.
    epoch(rec, 0, 400, {active(0, 400), active(1, 400)}, /*stall=*/0);
    epoch(rec, 400, 1000, {active(1, 600)});

    // At ratio 1 both CTP modes reproduce the measured time.
    DepPredictor per_epoch({BaseEstimator::Crit, false}, false);
    DepPredictor across({BaseEstimator::Crit, false}, true);
    EXPECT_EQ(per_epoch.predict(rec, Frequency::ghz(1.0)), 1000u);
    EXPECT_EQ(across.predict(rec, Frequency::ghz(1.0)), 1000u);
}

TEST(Dep, Algorithm1WorkedExample)
{
    // Hand-check Algorithm 1: two epochs, two threads, ratio 1.
    //
    // Epoch A (len 100): t0 a=100, t1 a=60; stall = t0.
    //   I' = max(100-0, 60-0) = 100; delta(t0)=0 (stall reset),
    //   delta(t1) = 100-60 = 40.
    // Epoch B (len 100): t0 a=80, t1 a=100.
    //   e(t0) = 80, e(t1) = 100-40 = 60 -> I' = 80.
    // Total = 180 (per-epoch CTP would give 100 + 100 = 200).
    RunRecord rec = simpleRecord();
    rec.totalTime = 200;
    epoch(rec, 0, 100, {active(0, 100), active(1, 60)}, /*stall=*/0);
    epoch(rec, 100, 200, {active(0, 80),
                                          active(1, 100)});

    DepPredictor across({BaseEstimator::Crit, false}, true);
    DepPredictor per_epoch({BaseEstimator::Crit, false}, false);
    EXPECT_EQ(across.predict(rec, Frequency::ghz(1.0)), 180u);
    EXPECT_EQ(per_epoch.predict(rec, Frequency::ghz(1.0)), 200u);
}

TEST(Dep, AcrossEpochNeverExceedsPerEpochOnSlackTraces)
{
    // When threads bank slack (finish early without stalling), the
    // across-epoch estimate is at most the per-epoch estimate.
    RunRecord rec = simpleRecord();
    Tick t = 0;
    for (int i = 0; i < 10; ++i) {
        Tick len = 100 + 13 * (i % 3);
        epoch(rec, t, t + len,
                                   {active(0, len),
                                    active(1, len - 20 * (i % 2))});
        t += len;
    }
    rec.totalTime = t;
    for (double ghz : {1.0, 2.0, 4.0}) {
        DepPredictor across({BaseEstimator::Crit, false}, true);
        DepPredictor per_epoch({BaseEstimator::Crit, false}, false);
        EXPECT_LE(across.predict(rec, Frequency::ghz(ghz)),
                  per_epoch.predict(rec, Frequency::ghz(ghz)));
    }
}

TEST(Dep, BurstMovesSqTimeToNonScaling)
{
    RunRecord rec = simpleRecord();
    epoch(rec, 0, 1000, {active(0, 1000, 0, 600)});
    DepPredictor plain({BaseEstimator::Crit, false}, true);
    DepPredictor burst({BaseEstimator::Crit, true}, true);
    // Double frequency: plain scales everything (500); burst keeps
    // the 600 SQ-full ticks constant (200 + 600).
    EXPECT_EQ(plain.predict(rec, Frequency::ghz(2.0)), 500u);
    EXPECT_EQ(burst.predict(rec, Frequency::ghz(2.0)), 800u);
}

TEST(Predictors, NamesAreDescriptive)
{
    EXPECT_EQ(MCritPredictor({BaseEstimator::Crit, false}).name(),
              "M+CRIT");
    EXPECT_EQ(MCritPredictor({BaseEstimator::Crit, true}).name(),
              "M+CRIT+BURST");
    EXPECT_EQ(CoopPredictor({BaseEstimator::Crit, false}).name(),
              "COOP(CRIT)");
    EXPECT_EQ(CoopPredictor({BaseEstimator::Crit, true}).name(),
              "COOP(CRIT+BURST)");
    EXPECT_EQ(DepPredictor({BaseEstimator::Crit, false}).name(), "DEP");
    EXPECT_EQ(DepPredictor({BaseEstimator::Crit, true}).name(),
              "DEP+BURST");
    EXPECT_EQ(DepPredictor({BaseEstimator::Crit, true}, false).name(),
              "DEP+BURST(per-epoch CTP)");
    // A base estimator other than CRIT is named in brackets, as in the
    // ablation's DEP ladder.
    EXPECT_EQ(DepPredictor({BaseEstimator::StallTime, false}).name(),
              "DEP[STALL]");
    EXPECT_EQ(DepPredictor({BaseEstimator::StallTime, true}).name(),
              "DEP+BURST[STALL]");
    EXPECT_EQ(DepPredictor({BaseEstimator::LeadingLoads, false}).name(),
              "DEP[LL]");
    EXPECT_EQ(DepPredictor({BaseEstimator::Oracle, false}).name(),
              "DEP[ORACLE]");
    EXPECT_EQ(DepPredictor({BaseEstimator::Oracle, true}).name(),
              "DEP+BURST[ORACLE]");
}

TEST(Predictors, RelativeError)
{
    EXPECT_NEAR(Predictor::relativeError(110, 100), 0.1, 1e-12);
    EXPECT_NEAR(Predictor::relativeError(90, 100), -0.1, 1e-12);
    EXPECT_NEAR(Predictor::relativeError(100, 100), 0.0, 1e-12);
}

/** Property: all predictors are monotone in the target period. */
class PredictorMonotone
    : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(PredictorMonotone, SlowerTargetNeverFaster)
{
    RunRecord rec = simpleRecord();
    rec.threads.push_back(thread(0, 0, 1000, 800, 200));
    rec.threads.push_back(thread(1, 0, 900, 850, 100));
    epoch(rec, 0, 500,
                               {active(0, 450, 100, 20),
                                active(1, 480, 50, 10)}, 0);
    epoch(rec, 500, 1000,
                               {active(0, 350, 100, 30),
                                active(1, 370, 50, 20)});

    Frequency lo = Frequency::mhz(GetParam());
    Frequency hi = Frequency::mhz(GetParam() + 500);
    for (const auto &p : PredictorRegistry::instance().figure3Set())
        EXPECT_GE(p->predict(rec, lo), p->predict(rec, hi)) << p->name();
}

INSTANTIATE_TEST_SUITE_P(Targets, PredictorMonotone,
                         ::testing::Values(1000, 1500, 2000, 2500, 3000,
                                           3500));
