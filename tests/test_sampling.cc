/**
 * @file
 * Sampled fast-path simulation: controller schedule, online model
 * conservation, and end-to-end sampled runs (DESIGN.md section 11).
 *
 * The contracts under test:
 *  - the SamplingController's window placement is a pure function of
 *    its config (never of workload content),
 *  - the FastPathModel's integer emission conserves observed sums
 *    (emitted totals track observed means with zero long-run drift),
 *  - a sampled run completes, covers only a fraction of simulated
 *    time in detail, and reproduces bit-identically;
 *  - gapWindow == 0 disables fast-forward entirely (exact behaviour).
 */

#include <gtest/gtest.h>

#include "exp/experiment.hh"
#include "exp/sweep/fingerprint.hh"
#include "sim/event_queue.hh"
#include "sim/sampling.hh"
#include "uarch/fastpath.hh"
#include "wl/suite.hh"

using namespace dvfs;

namespace {

sim::SamplingConfig
smallWindows()
{
    sim::SamplingConfig cfg;
    cfg.startupDetail = 50 * kTicksPerUs;
    cfg.detailWindow = 20 * kTicksPerUs;
    cfg.gapWindow = 180 * kTicksPerUs;
    return cfg;
}

} // namespace

TEST(SamplingController, WindowScheduleIsPureFunctionOfConfig)
{
    sim::EventQueue eq;
    sim::SamplingConfig cfg = smallWindows();
    sim::SamplingController sc(eq, cfg);
    EXPECT_EQ(sc.phase(), sim::SamplePhase::Detail);

    sc.start();
    // Startup detail window: [0, 50us), then alternating 180us/20us.
    EXPECT_FALSE(sc.fastForward());
    EXPECT_EQ(sc.phaseEnd(), cfg.startupDetail);

    while (eq.now() < cfg.startupDetail)
        ASSERT_TRUE(eq.runOne());
    EXPECT_TRUE(sc.fastForward());
    EXPECT_EQ(sc.phaseEnd(), cfg.startupDetail + cfg.gapWindow);

    while (eq.now() < cfg.startupDetail + cfg.gapWindow)
        ASSERT_TRUE(eq.runOne());
    EXPECT_FALSE(sc.fastForward());
    EXPECT_EQ(sc.phaseEnd(),
              cfg.startupDetail + cfg.gapWindow + cfg.detailWindow);

    const sim::SampleStats st = sc.finalStats();
    EXPECT_EQ(st.detailWindows, 1u);
    EXPECT_EQ(st.ffWindows, 1u);
    EXPECT_EQ(st.detailTicks, cfg.startupDetail);
    EXPECT_EQ(st.ffTicks, cfg.gapWindow);
}

TEST(SamplingController, ZeroGapNeverFastForwards)
{
    sim::EventQueue eq;
    sim::SamplingConfig cfg;
    cfg.gapWindow = 0;
    sim::SamplingController sc(eq, cfg);
    sc.start();
    EXPECT_FALSE(sc.fastForward());
    EXPECT_EQ(sc.phaseEnd(), kTickNever);
    // No flip events were scheduled at all.
    EXPECT_FALSE(eq.runOne());
}

TEST(SamplingController, FinalStatsIncludePartialPhase)
{
    sim::EventQueue eq;
    sim::SamplingConfig cfg = smallWindows();
    sim::SamplingController sc(eq, cfg);
    sc.start();
    // Advance half-way into the startup window without reaching it.
    eq.schedule(cfg.startupDetail / 2, [] {});
    ASSERT_TRUE(eq.runOne());
    const sim::SampleStats st = sc.finalStats();
    EXPECT_EQ(st.detailTicks, cfg.startupDetail / 2);
    EXPECT_EQ(st.detailWindows, 0u);
}

TEST(SamplingController, DetailWindowLongerThanGapStillAlternates)
{
    // Degenerate placement: detail >= gap. The schedule must stay a
    // strict alternation with the configured lengths, not collapse.
    sim::EventQueue eq;
    sim::SamplingConfig cfg;
    cfg.startupDetail = 10 * kTicksPerUs;
    cfg.detailWindow = 50 * kTicksPerUs;
    cfg.gapWindow = 20 * kTicksPerUs;
    sim::SamplingController sc(eq, cfg);
    sc.start();

    const Tick gapEnd = cfg.startupDetail + cfg.gapWindow;
    while (eq.now() < cfg.startupDetail)
        ASSERT_TRUE(eq.runOne());
    EXPECT_TRUE(sc.fastForward());
    while (eq.now() < gapEnd)
        ASSERT_TRUE(eq.runOne());
    EXPECT_FALSE(sc.fastForward());
    EXPECT_EQ(sc.phaseEnd(), gapEnd + cfg.detailWindow);

    while (eq.now() < gapEnd + cfg.detailWindow)
        ASSERT_TRUE(eq.runOne());
    EXPECT_TRUE(sc.fastForward());

    const sim::SampleStats st = sc.finalStats();
    EXPECT_EQ(st.detailWindows, 2u);
    EXPECT_EQ(st.detailTicks, cfg.startupDetail + cfg.detailWindow);
    EXPECT_EQ(st.ffWindows, 1u);
    EXPECT_EQ(st.ffTicks, cfg.gapWindow);
}

TEST(SamplingController, ForceDetailOnFlipTickKeepsAccountingExact)
{
    // A transition landing on the very tick of a detail -> gap flip:
    // the flip runs first (it was scheduled when the window opened),
    // then noteTransition() cuts the zero-length gap and opens a full
    // detail window. Tick accounting must stay exact and the schedule
    // must keep exactly one live boundary event (a stale flip would
    // fire at the wrong tick and trip the controller's assert).
    sim::EventQueue eq;
    sim::SamplingConfig cfg = smallWindows();
    sim::SamplingController sc(eq, cfg);
    int ffEntries = 0;
    int detailEntries = 0;
    sc.onFlip([&](sim::SamplePhase p) {
        if (p == sim::SamplePhase::FastForward)
            ffEntries += 1;
        else
            detailEntries += 1;
    });
    sc.start();
    eq.schedule(cfg.startupDetail, [&] { sc.noteTransition(); });

    while (eq.now() < cfg.startupDetail)
        ASSERT_TRUE(eq.runOne());
    // The flip fired; the forcing event is still pending at this tick.
    ASSERT_TRUE(eq.runOne());
    EXPECT_FALSE(sc.fastForward());
    EXPECT_EQ(sc.phaseEnd(), cfg.startupDetail + cfg.detailWindow);

    sim::SampleStats st = sc.finalStats();
    EXPECT_EQ(st.transitions, 1u);
    EXPECT_EQ(st.forcedWindows, 1u);
    EXPECT_EQ(st.ffWindows, 1u);     // the zero-length cut gap
    EXPECT_EQ(st.ffTicks, 0u);
    EXPECT_EQ(st.detailTicks, cfg.startupDetail);
    // The model ages exactly once per fast-forward entry; the forced
    // re-entry into detail is not an aging boundary (this is what
    // keeps era promotion single-shot at a coincident flip).
    EXPECT_EQ(ffEntries, 1);
    EXPECT_EQ(detailEntries, 1);

    // The schedule keeps running cleanly past the forced window.
    const Tick horizon = cfg.startupDetail + 3 * cfg.gapWindow;
    while (eq.now() < horizon)
        ASSERT_TRUE(eq.runOne());
    st = sc.finalStats();
    EXPECT_EQ(st.detailTicks + st.ffTicks, eq.now());
}

TEST(SamplingController, ForceDetailExtendsOnlyShortRemainders)
{
    sim::EventQueue eq;
    sim::SamplingConfig cfg = smallWindows();
    sim::SamplingController sc(eq, cfg);
    sc.start();

    // Early in the startup window a full detailWindow still lies
    // ahead: forcing is a no-op.
    eq.schedule(10 * kTicksPerUs, [&] { sc.forceDetail(); });
    while (eq.now() < 10 * kTicksPerUs)
        ASSERT_TRUE(eq.runOne());
    EXPECT_EQ(sc.finalStats().forcedWindows, 0u);
    EXPECT_EQ(sc.phaseEnd(), cfg.startupDetail);

    // Near the end of the window the remainder is short: forcing
    // extends the window to a full detailWindow from now.
    const Tick late = cfg.startupDetail - kTicksPerUs;
    eq.schedule(late, [&] { sc.forceDetail(); });
    while (eq.now() < late)
        ASSERT_TRUE(eq.runOne());
    EXPECT_EQ(sc.finalStats().forcedWindows, 1u);
    EXPECT_EQ(sc.phaseEnd(), late + cfg.detailWindow);
    EXPECT_FALSE(sc.fastForward());

    // The cancelled original boundary must not fire: running past it
    // flips at the extended end only.
    while (eq.now() < late + cfg.detailWindow)
        ASSERT_TRUE(eq.runOne());
    EXPECT_TRUE(sc.fastForward());
}

TEST(SamplingController, ForceDetailBeforeStartOrZeroGapIsNoOp)
{
    sim::EventQueue eq;
    sim::SamplingConfig cfg = smallWindows();
    sim::SamplingController sc(eq, cfg);
    sc.forceDetail();  // before start(): must not schedule or count
    EXPECT_EQ(sc.finalStats().forcedWindows, 0u);
    EXPECT_FALSE(eq.runOne());

    sim::EventQueue eq0;
    sim::SamplingConfig zero;
    zero.gapWindow = 0;
    sim::SamplingController sc0(eq0, zero);
    sc0.start();
    sc0.noteTransition();
    EXPECT_EQ(sc0.finalStats().forcedWindows, 0u);
    EXPECT_EQ(sc0.finalStats().transitions, 1u);
    EXPECT_EQ(sc0.phaseEnd(), kTickNever);
    EXPECT_FALSE(eq0.runOne());
}

TEST(SamplingController, AdaptiveStretchesGapsWhenProbeReportsSteady)
{
    // A drift probe that always reports "steady" must double the gap
    // up to the cap: with maxGapWindow = 8 x gapWindow the stretch
    // walks 2, 4, 8, 8, ... — the histogram fills buckets 1..3 and
    // nothing beyond the cap. Pure event-queue run: the placement is a
    // function of config and probe output alone.
    sim::EventQueue eq;
    sim::SamplingConfig cfg;
    cfg.startupDetail = 10 * kTicksPerUs;
    cfg.detailWindow = 10 * kTicksPerUs;
    cfg.gapWindow = 100 * kTicksPerUs;
    cfg.maxGapWindow = 800 * kTicksPerUs;
    sim::SamplingController sc(eq, cfg);
    sc.driftProbe([] { return 0u; });
    sc.start();

    const Tick horizon = 10 * kTicksPerMs;
    while (eq.now() < horizon)
        ASSERT_TRUE(eq.runOne());

    const sim::SampleStats st = sc.finalStats();
    EXPECT_EQ(st.gapStretch[0], 0u);  // first gap already stretches
    EXPECT_EQ(st.gapStretch[1], 1u);  // 200us
    EXPECT_EQ(st.gapStretch[2], 1u);  // 400us
    EXPECT_GT(st.gapStretch[3], 2u);  // 800us, the cap, repeatedly
    for (int b = 4; b < sim::SampleStats::kGapStretchBuckets; ++b)
        EXPECT_EQ(st.gapStretch[b], 0u) << "bucket " << b;
    // Long gaps in steady phases: coverage far below the fixed
    // cadence's detail share.
    EXPECT_LT(st.coverage(),
              static_cast<double>(cfg.detailWindow) /
                  static_cast<double>(cfg.detailWindow + cfg.gapWindow));

    // Determinism: the same config and probe reproduce the schedule.
    sim::EventQueue eq2;
    sim::SamplingController sc2(eq2, cfg);
    sc2.driftProbe([] { return 0u; });
    sc2.start();
    while (eq2.now() < horizon)
        ASSERT_TRUE(eq2.runOne());
    const sim::SampleStats st2 = sc2.finalStats();
    EXPECT_EQ(st2.detailWindows, st.detailWindows);
    EXPECT_EQ(st2.ffTicks, st.ffTicks);
    for (int b = 0; b < sim::SampleStats::kGapStretchBuckets; ++b)
        EXPECT_EQ(st2.gapStretch[b], st.gapStretch[b]) << "bucket " << b;
}

TEST(SamplingController, DriftOrForcedWindowResetsTheStretch)
{
    sim::EventQueue eq;
    sim::SamplingConfig cfg;
    cfg.startupDetail = 10 * kTicksPerUs;
    cfg.detailWindow = 10 * kTicksPerUs;
    cfg.gapWindow = 100 * kTicksPerUs;
    cfg.maxGapWindow = 800 * kTicksPerUs;
    cfg.driftThresholdPermille = 50;

    // A drifting probe never stretches: every gap lands in bucket 0.
    sim::SamplingController drifting(eq, cfg);
    drifting.driftProbe([] { return 1000u; });
    drifting.start();
    while (eq.now() < 2 * kTicksPerMs)
        ASSERT_TRUE(eq.runOne());
    const sim::SampleStats ds = drifting.finalStats();
    EXPECT_GT(ds.gapStretch[0], 0u);
    for (int b = 1; b < sim::SampleStats::kGapStretchBuckets; ++b)
        EXPECT_EQ(ds.gapStretch[b], 0u) << "bucket " << b;

    // A steady probe stretches; a forced window snaps back to the
    // base gap, after which stretching restarts from 2x.
    sim::EventQueue eq2;
    sim::SamplingController sc(eq2, cfg);
    sc.driftProbe([] { return 0u; });
    sc.start();
    while (eq2.now() < 2 * kTicksPerMs)
        ASSERT_TRUE(eq2.runOne());
    while (!sc.fastForward())
        ASSERT_TRUE(eq2.runOne());
    const sim::SampleStats before = sc.finalStats();
    ASSERT_GT(before.gapStretch[3], 0u);

    sc.forceDetail();
    EXPECT_FALSE(sc.fastForward());
    // Run out the forced detail window; the flip at its end enters
    // the next gap, which starts over from a single doubling.
    const Tick forcedEnd = sc.phaseEnd();
    while (eq2.now() < forcedEnd)
        ASSERT_TRUE(eq2.runOne());
    const sim::SampleStats after = sc.finalStats();
    EXPECT_EQ(after.forcedWindows, 1u);
    EXPECT_EQ(after.gapStretch[1], before.gapStretch[1] + 1);
}

TEST(FastPathModel, ColdModelRefusesToCharge)
{
    uarch::FastPathModel m(4);
    uarch::MissClusterSpec lite;
    lite.liteChains = 2;
    lite.liteChainDepth = 8;
    lite.overlapInstructions = 100;
    Tick elapsed = 0;
    uarch::PerfCounters pc;
    EXPECT_FALSE(m.chargeCluster(lite, 2, elapsed, pc));

    uarch::StoreBurstSpec burst;
    burst.lines = 16;
    EXPECT_FALSE(m.chargeBurst(burst, 2, elapsed, pc));

    // Observations alone do not make the model chargeable: the window
    // must be promoted by age() first.
    uarch::MissClusterSpec full;
    full.chains = {{1, 2, 3, 4}, {5, 6, 7, 8}, {9, 10, 11, 12},
                   {13, 14, 15, 16}};
    full.overlapInstructions = 100;
    for (int i = 0; i < 16; ++i) {
        uarch::PerfCounters d;
        m.observeCluster(full, 2, 1000, d);
    }
    lite.liteChains = 4;
    lite.liteChainDepth = 4;
    EXPECT_FALSE(m.chargeCluster(lite, 2, elapsed, pc));
    m.age();
    EXPECT_TRUE(m.chargeCluster(lite, 2, elapsed, pc));
}

TEST(FastPathModel, EmissionConservesObservedMeans)
{
    uarch::FastPathConfig cfg;
    cfg.minClusterObs = 4;
    uarch::FastPathModel m(4, cfg);

    // Observe a fixed shape with a deliberately awkward elapsed value
    // so integer division must round somewhere.
    uarch::MissClusterSpec spec;
    spec.chains = {{1, 2, 3}, {4, 5}};
    spec.overlapInstructions = 50;
    const Tick obsElapsed = 1000003;
    for (int i = 0; i < 4; ++i) {
        uarch::PerfCounters d;
        d.computeTime = 333335;
        d.l3Hits = 5;
        m.observeCluster(spec, 2, obsElapsed, d);
    }
    m.age();

    uarch::MissClusterSpec lite;
    lite.liteChains = 2;
    lite.liteChainDepth = 0;
    lite.overlapInstructions = 50;
    // loadCount must match the observed shape (5 loads).
    lite.liteChains = 5;
    lite.liteChainDepth = 1;

    Tick sumElapsed = 0;
    std::uint64_t sumL3 = 0;
    uarch::PerfCounters pc;
    const int kCharges = 1000;
    for (int i = 0; i < kCharges; ++i) {
        Tick e = 0;
        ASSERT_TRUE(m.chargeCluster(lite, 2, e, pc));
        sumElapsed += e;
        // Every charge is within one tick of the mean.
        EXPECT_NEAR(static_cast<double>(e),
                    static_cast<double>(obsElapsed), 1.0);
    }
    sumL3 = pc.l3Hits;

    // Cumulative emission: totals equal the entitled share exactly
    // (floor), so drift never accumulates.
    const double meanElapsed =
        static_cast<double>(sumElapsed) / kCharges;
    EXPECT_NEAR(meanElapsed, static_cast<double>(obsElapsed), 0.01);
    EXPECT_NEAR(static_cast<double>(sumL3) / kCharges, 5.0, 0.01);
    EXPECT_EQ(pc.instructions, 50u * kCharges);
    EXPECT_EQ(pc.missClusters, static_cast<std::uint64_t>(kCharges));
}

TEST(FastPathModel, OccupancyLanesAreSeparate)
{
    uarch::FastPathConfig cfg;
    cfg.minClusterObs = 2;
    uarch::FastPathModel m(4, cfg);

    uarch::MissClusterSpec spec;
    spec.chains = {{1, 2}};
    // Same shape, very different latency at different occupancy.
    for (int i = 0; i < 2; ++i) {
        uarch::PerfCounters d;
        m.observeCluster(spec, 1, 1000, d);
        m.observeCluster(spec, 4, 9000, d);
    }
    m.age();

    uarch::PerfCounters pc;
    Tick e1 = 0, e4 = 0;
    ASSERT_TRUE(m.chargeCluster(spec, 1, e1, pc));
    ASSERT_TRUE(m.chargeCluster(spec, 4, e4, pc));
    EXPECT_NEAR(static_cast<double>(e1), 1000.0, 1.0);
    EXPECT_NEAR(static_cast<double>(e4), 9000.0, 1.0);
}

TEST(FastPathModel, OperatingPointForkRescalesOnlyTheComputeShare)
{
    uarch::FastPathConfig cfg;
    cfg.minClusterObs = 4;
    uarch::FastPathModel m(4, cfg);
    m.setOperatingPoint(2000);
    EXPECT_EQ(m.operatingPoint(), 2000u);
    EXPECT_EQ(m.operatingPoints(), 1u);

    // Fit one shape: elapsed 1000 of which 600 is compute (scaling)
    // and 400 memory/sync (non-scaling).
    uarch::MissClusterSpec spec;
    spec.chains = {{1, 2, 3}, {4, 5}};
    spec.overlapInstructions = 50;
    for (int i = 0; i < 4; ++i) {
        uarch::PerfCounters d;
        d.computeTime = 600;
        m.observeCluster(spec, 2, 1000, d);
    }
    m.age();

    uarch::MissClusterSpec lite;
    lite.liteChains = 5;
    lite.liteChainDepth = 1;
    lite.overlapInstructions = 50;

    uarch::PerfCounters pc;
    Tick e = 0;
    ASSERT_TRUE(m.chargeCluster(lite, 2, e, pc));
    EXPECT_NEAR(static_cast<double>(e), 1000.0, 1.0);

    // Halving the frequency forks the era: compute doubles, the
    // non-scaling share carries over -> 400 + 1200 = 1600.
    m.setOperatingPoint(1000);
    EXPECT_EQ(m.operatingPoint(), 1000u);
    EXPECT_EQ(m.operatingPoints(), 2u);
    uarch::PerfCounters pc1;
    Tick e1 = 0;
    ASSERT_TRUE(m.chargeCluster(lite, 2, e1, pc1));
    EXPECT_NEAR(static_cast<double>(e1), 1600.0, 1.0);

    // Revisiting the original point resumes its own era unchanged —
    // no second fork, no accumulation of rescaling error.
    m.setOperatingPoint(2000);
    EXPECT_EQ(m.operatingPoints(), 2u);
    uarch::PerfCounters pc2;
    Tick e2 = 0;
    ASSERT_TRUE(m.chargeCluster(lite, 2, e2, pc2));
    EXPECT_NEAR(static_cast<double>(e2), 1000.0, 1.0);
}

TEST(FastPathModel, AgeOnEmptyWindowKeepsTheEra)
{
    // age() at a flip with nothing observed since the last promotion
    // (e.g. a forced detail window that saw no clusters) must neither
    // clear the charging era nor restart its emission bookkeeping —
    // this is what makes a transition landing exactly on a detail ->
    // gap flip tick safe against double-charging.
    uarch::FastPathConfig cfg;
    cfg.minClusterObs = 4;
    uarch::FastPathModel m(4, cfg);

    uarch::MissClusterSpec spec;
    spec.chains = {{1, 2, 3}, {4, 5}};
    spec.overlapInstructions = 50;
    for (int i = 0; i < 4; ++i) {
        uarch::PerfCounters d;
        d.computeTime = 600;
        m.observeCluster(spec, 2, 1000, d);
    }
    m.age();

    uarch::MissClusterSpec lite;
    lite.liteChains = 5;
    lite.liteChainDepth = 1;
    lite.overlapInstructions = 50;

    uarch::PerfCounters pc;
    Tick sum = 0;
    for (int i = 0; i < 3; ++i) {
        Tick e = 0;
        ASSERT_TRUE(m.chargeCluster(lite, 2, e, pc));
        sum += e;
        m.age();  // empty window: must be a no-op for charging
    }
    // Cumulative emission across the interleaved age() calls matches
    // the era mean exactly — no reset, no double emission.
    EXPECT_NEAR(static_cast<double>(sum) / 3.0, 1000.0, 1.0);
}

TEST(FastPathModel, DriftPermilleComparesConsecutivePromotions)
{
    uarch::FastPathConfig cfg;
    cfg.minClusterObs = 4;
    uarch::FastPathModel m(4, cfg);

    uarch::MissClusterSpec spec;
    spec.chains = {{1, 2, 3}, {4, 5}};
    spec.overlapInstructions = 50;
    auto window = [&](Tick elapsed) {
        for (int i = 0; i < 4; ++i) {
            uarch::PerfCounters d;
            d.computeTime = 600;
            m.observeCluster(spec, 2, elapsed, d);
        }
    };

    // First promotion replaces no live era: drift is unknowable and
    // must be reported as such (callers treat it as drifting).
    window(1000);
    m.age();
    EXPECT_EQ(m.lastDriftPermille(), uarch::FastPathModel::kDriftUnknown);

    // Identical window: zero drift.
    window(1000);
    m.age();
    EXPECT_EQ(m.lastDriftPermille(), 0u);

    // 10% slower window: 100 permille against the era it replaces.
    window(1100);
    m.age();
    EXPECT_EQ(m.lastDriftPermille(), 100u);

    // Nothing new observed: nothing promoted, drift unknown again.
    m.age();
    EXPECT_EQ(m.lastDriftPermille(), uarch::FastPathModel::kDriftUnknown);
}

TEST(SampledRun, CompletesAndCoversFractionOfTime)
{
    exp::RunOptions opts;
    opts.mode = exp::SimMode::Sampled;
    opts.sampling.startupDetail = 10 * kTicksPerUs;
    opts.sampling.detailWindow = 5 * kTicksPerUs;
    opts.sampling.gapWindow = 45 * kTicksPerUs;
    auto out = exp::runFixed(wl::syntheticSmall(2, 200),
                             Frequency::ghz(2.0), opts);

    EXPECT_EQ(out.mode, exp::SimMode::Sampled);
    EXPECT_GT(out.totalTime, 0u);
    EXPECT_GT(out.sampling.ffWindows, 0u);
    EXPECT_GT(out.sampling.ffActions, 0u);
    EXPECT_GT(out.sampling.ffCommits, 0u);
    // Batching: many actions per commit event, or the mode is useless.
    EXPECT_GT(out.sampling.ffActions, 4 * out.sampling.ffCommits);
    // Most of simulated time was fast-forwarded.
    EXPECT_LT(out.sampling.coverage(), 0.5);
    // The observation surface stays well-formed.
    EXPECT_FALSE(out.record.epochs.empty());
    EXPECT_EQ(out.record.totalTime, out.totalTime);
}

TEST(SampledRun, SameSeedBitIdentical)
{
    exp::RunOptions opts;
    opts.mode = exp::SimMode::Sampled;
    opts.sampling.startupDetail = 10 * kTicksPerUs;
    opts.sampling.detailWindow = 5 * kTicksPerUs;
    opts.sampling.gapWindow = 45 * kTicksPerUs;
    opts.seed = 7;
    auto a = exp::runFixed(wl::syntheticSmall(2, 120),
                           Frequency::ghz(2.0), opts);
    auto b = exp::runFixed(wl::syntheticSmall(2, 120),
                           Frequency::ghz(2.0), opts);
    EXPECT_EQ(exp::sweep::fingerprintRun(a), exp::sweep::fingerprintRun(b));
    EXPECT_GT(a.sampling.ffActions, 0u);
    EXPECT_EQ(a.sampling.ffActions, b.sampling.ffActions);
    EXPECT_EQ(a.sampling.ffFallbacks, b.sampling.ffFallbacks);
}

TEST(SampledRun, ZeroGapMatchesExactBitForBit)
{
    exp::RunOptions exact;
    exact.seed = 11;
    auto e = exp::runFixed(wl::syntheticSmall(2, 40),
                           Frequency::ghz(2.0), exact);

    exp::RunOptions sampled = exact;
    sampled.mode = exp::SimMode::Sampled;
    sampled.sampling.gapWindow = 0;
    auto s = exp::runFixed(wl::syntheticSmall(2, 40),
                           Frequency::ghz(2.0), sampled);

    EXPECT_EQ(exp::sweep::fingerprintRun(e), exp::sweep::fingerprintRun(s));
    EXPECT_EQ(s.sampling.ffActions, 0u);
    EXPECT_EQ(s.sampling.ffWindows, 0u);
}

TEST(SampledRun, RunShorterThanStartupWindowMatchesExact)
{
    // A run that ends inside the startup detail window never
    // fast-forwards, so it must equal the exact run bit for bit.
    exp::RunOptions exact;
    exact.seed = 3;
    auto e = exp::runFixed(wl::syntheticSmall(1, 2),
                           Frequency::ghz(2.0), exact);

    exp::RunOptions sampled = exact;
    sampled.mode = exp::SimMode::Sampled;
    sampled.sampling.startupDetail = 100 * kTicksPerMs;
    ASSERT_LT(e.totalTime, sampled.sampling.startupDetail);
    auto s = exp::runFixed(wl::syntheticSmall(1, 2),
                           Frequency::ghz(2.0), sampled);

    EXPECT_EQ(exp::sweep::fingerprintRun(e), exp::sweep::fingerprintRun(s));
    EXPECT_EQ(s.sampling.ffActions, 0u);
}

TEST(SampledRun, ManagedRunAcceptsSampledMode)
{
    exp::RunOptions opts;
    opts.mode = exp::SimMode::Sampled;
    opts.sampling.startupDetail = 10 * kTicksPerUs;
    opts.sampling.detailWindow = 5 * kTicksPerUs;
    opts.sampling.gapWindow = 45 * kTicksPerUs;
    mgr::ManagerConfig mc;
    auto table = power::VfTable::haswell();
    auto out = exp::runManaged(wl::syntheticSmall(2, 400), mc, table,
                               opts);

    EXPECT_EQ(out.mode, exp::SimMode::Sampled);
    EXPECT_GT(out.totalTime, 0u);
    EXPECT_GT(out.sampling.ffActions, 0u);
    EXPECT_LT(out.sampling.coverage(), 1.0);
    // Every DVFS transition the manager performed was observed by the
    // controller (noteTransition), and each one forced detail.
    EXPECT_EQ(out.sampling.transitions, out.transitions);
    if (out.transitions > 0) {
        EXPECT_GT(out.sampling.forcedWindows, 0u);
    }
}

TEST(SampledRun, ManagedSampledSameSeedBitIdentical)
{
    exp::RunOptions opts;
    opts.mode = exp::SimMode::Sampled;
    opts.sampling.startupDetail = 10 * kTicksPerUs;
    opts.sampling.detailWindow = 5 * kTicksPerUs;
    opts.sampling.gapWindow = 45 * kTicksPerUs;
    opts.seed = 7;
    mgr::ManagerConfig mc;
    auto table = power::VfTable::haswell();
    auto a = exp::runManaged(wl::syntheticSmall(2, 200), mc, table, opts);
    auto b = exp::runManaged(wl::syntheticSmall(2, 200), mc, table, opts);
    EXPECT_EQ(exp::sweep::fingerprintRun(a),
              exp::sweep::fingerprintRun(b));
    EXPECT_EQ(a.sampling.ffActions, b.sampling.ffActions);
    EXPECT_EQ(a.sampling.forcedWindows, b.sampling.forcedWindows);
    EXPECT_EQ(a.transitions, b.transitions);
}

TEST(SampledRun, ManagedZeroGapMatchesExactManagedBitForBit)
{
    mgr::ManagerConfig mc;
    auto table = power::VfTable::haswell();

    exp::RunOptions exact;
    exact.seed = 11;
    auto e = exp::runManaged(wl::syntheticSmall(2, 120), mc, table, exact);

    exp::RunOptions sampled = exact;
    sampled.mode = exp::SimMode::Sampled;
    sampled.sampling.gapWindow = 0;
    auto s = exp::runManaged(wl::syntheticSmall(2, 120), mc, table,
                             sampled);

    EXPECT_EQ(exp::sweep::fingerprintRun(e),
              exp::sweep::fingerprintRun(s));
    EXPECT_EQ(s.totalTime, e.totalTime);
    EXPECT_EQ(s.transitions, e.transitions);
    EXPECT_EQ(s.sampling.ffActions, 0u);
    EXPECT_EQ(s.sampling.forcedWindows, 0u);
}

TEST(SimMode, NamesRoundTrip)
{
    EXPECT_STREQ(exp::simModeName(exp::SimMode::Exact), "exact");
    EXPECT_STREQ(exp::simModeName(exp::SimMode::Sampled), "sampled");
    EXPECT_EQ(exp::parseSimMode("exact"), exp::SimMode::Exact);
    EXPECT_EQ(exp::parseSimMode("sampled"), exp::SimMode::Sampled);
    EXPECT_DEATH(exp::parseSimMode("fast"), "unknown simulation mode");
}

TEST(SimMode, ParseIsCaseInsensitive)
{
    EXPECT_EQ(exp::parseSimMode("Exact"), exp::SimMode::Exact);
    EXPECT_EQ(exp::parseSimMode("EXACT"), exp::SimMode::Exact);
    EXPECT_EQ(exp::parseSimMode("Sampled"), exp::SimMode::Sampled);
    EXPECT_EQ(exp::parseSimMode("SAMPLED"), exp::SimMode::Sampled);
}

TEST(SimMode, ParseFatalNamesTheOffendingFlag)
{
    EXPECT_DEATH(exp::parseSimMode("fast", "--sim-mode"),
                 "--sim-mode: unknown simulation mode 'fast'");
    // The default flag name appears when none is given.
    EXPECT_DEATH(exp::parseSimMode("turbo"),
                 "--mode: unknown simulation mode 'turbo'");
}
