/**
 * @file
 * Exact-vs-sampled differential contracts (DESIGN.md section 11).
 *
 * Sampled mode is admitted into the tree only under measured, gated
 * properties:
 *  - sampled sweeps are deterministic and worker-count invariant, with
 *    their own pinned fig3-grid fingerprint (distinct from the exact
 *    golden one, which test_sweep_golden pins),
 *  - compareModes' error bounds are themselves deterministic, so CI
 *    can gate hard on them,
 *  - gapWindow == 0 collapses the differential to zero by
 *    construction,
 *  - collections that begin and end inside fast-forwarded gaps leave
 *    the predictor observation surface well-formed: same collection
 *    count as the exact run, paired GC marks, monotone epochs.
 */

#include <gtest/gtest.h>

#include "exp/sweep/differential.hh"
#include "exp/sweep/sweep.hh"
#include "wl/suite.hh"

using namespace dvfs;

namespace {

/** Windows small enough that tiny synthetic runs still alternate. */
sim::SamplingConfig
tinyWindows()
{
    sim::SamplingConfig cfg;
    cfg.startupDetail = 10 * kTicksPerUs;
    cfg.detailWindow = 5 * kTicksPerUs;
    cfg.gapWindow = 45 * kTicksPerUs;
    return cfg;
}

/** A cheap synthetic grid: 2 workloads x 3 frequencies x 2 seeds. */
exp::sweep::SweepSpec
smallGrid()
{
    exp::sweep::SweepSpec spec;
    spec.workloads = {wl::syntheticSmall(2, 120), wl::syntheticSmall(4, 80)};
    spec.frequencies = {Frequency::ghz(1.0), Frequency::ghz(2.0),
                        Frequency::ghz(4.0)};
    spec.seeds = exp::sweep::SweepSpec::replicateSeeds(42, 2);
    return spec;
}

/** The fig3 ground-truth grid sweep_bench measures (4 benchmarks). */
exp::sweep::SweepSpec
fig3Grid()
{
    exp::sweep::SweepSpec spec;
    for (const auto &params : wl::dacapoSuite()) {
        if (spec.workloads.size() >= 4)
            break;
        spec.workloads.push_back(params);
    }
    spec.frequencies = {Frequency::ghz(1.0), Frequency::ghz(2.0),
                        Frequency::ghz(3.0), Frequency::ghz(4.0)};
    spec.seeds = exp::sweep::SweepSpec::replicateSeeds(42, 1);
    return spec;
}

std::uint64_t
runDigest(const exp::sweep::SweepSpec &spec, unsigned workers)
{
    exp::sweep::SweepRunner::Options ro;
    ro.workers = workers;
    auto res = exp::sweep::SweepRunner(spec, ro).run();
    return exp::sweep::gridDigest(res.cells);
}

} // namespace

TEST(SampledSweepDeterminism, WorkerCountInvariantFingerprint)
{
    exp::sweep::SweepSpec spec = smallGrid();
    spec.runOptions.mode = exp::SimMode::Sampled;
    spec.runOptions.sampling = tinyWindows();

    const std::uint64_t serial = runDigest(spec, 1);
    EXPECT_EQ(runDigest(spec, 2), serial);
    EXPECT_EQ(runDigest(spec, 8), serial);
    // Repeat stability, not just worker invariance.
    EXPECT_EQ(runDigest(spec, 1), serial);
}

TEST(SampledSweepDeterminism, SampledCellsActuallyFastForward)
{
    exp::sweep::SweepSpec spec = smallGrid();
    spec.runOptions.mode = exp::SimMode::Sampled;
    spec.runOptions.sampling = tinyWindows();

    exp::sweep::SweepRunner::Options ro;
    ro.workers = 2;
    auto res = exp::sweep::SweepRunner(spec, ro).run();
    std::uint64_t ff_actions = 0;
    for (const auto &cell : res.cells) {
        EXPECT_EQ(cell.mode, exp::SimMode::Sampled);
        ff_actions += cell.sampling.ffActions;
    }
    EXPECT_GT(ff_actions, 0u);
}

/**
 * The sampled fig3-grid fingerprint, pinned. The exact golden digest
 * (0xb806f47ff81388e0, test_sweep_golden) proves the oracle never
 * moved; this one trips on any drift in the fast path — model
 * emission, warm-overlay behaviour, GC fast-forward batching, window
 * placement — at every worker count the acceptance gate names.
 */
TEST(SampledSweepGolden, Fig3GridFingerprintPinnedAcrossWorkers)
{
    constexpr std::uint64_t kSampledGolden = 0x681d8e2cbc485463ULL;
    exp::sweep::SweepSpec spec = fig3Grid();
    spec.runOptions.mode = exp::SimMode::Sampled;
    for (unsigned workers : {1u, 2u, 8u})
        EXPECT_EQ(runDigest(spec, workers), kSampledGolden)
            << "workers=" << workers;
}

TEST(SampledDifferential, ErrorBoundsOnSmallGridAreDeterministic)
{
    exp::sweep::SweepSpec spec = smallGrid();
    auto cmp = exp::sweep::compareModes(spec, tinyWindows(), 2);

    EXPECT_EQ(cmp.cells, spec.cellCount());
    EXPECT_EQ(cmp.cellTimeErrPct.size(), spec.cellCount());
    EXPECT_GT(cmp.sampleTotals.ffActions, 0u);
    // workloads x seeds x non-base frequencies slowdown samples.
    EXPECT_EQ(cmp.slowdownSamples, 2u * 2u * 2u);
    EXPECT_FALSE(cmp.predictors.empty());
    for (const auto &p : cmp.predictors) {
        EXPECT_EQ(p.samples, cmp.slowdownSamples) << p.predictor;
        EXPECT_GE(p.maxAbsPct, p.meanAbsPct) << p.predictor;
        EXPECT_GE(p.maxAbsPctExactFed, p.meanAbsPctExactFed)
            << p.predictor;
    }
    EXPECT_GE(cmp.maxAbsTimeErrPct, cmp.meanAbsTimeErrPct);
    EXPECT_GE(cmp.maxAbsSlowdownErrPct, cmp.meanAbsSlowdownErrPct);
    // Tiny windows on tiny runs are the worst case for the model;
    // the bound here is a tripwire against gross regressions, not the
    // fig3-grid acceptance bound (fig9_sampling_accuracy gates that).
    EXPECT_LT(cmp.meanAbsSlowdownErrPct, 25.0);

    // The differential is a pure function of (spec, sampling config):
    // digests and error metrics reproduce bit-for-bit; only wall
    // clocks may move between invocations.
    auto again = exp::sweep::compareModes(spec, tinyWindows(), 1);
    EXPECT_EQ(again.exactDigest, cmp.exactDigest);
    EXPECT_EQ(again.sampledDigest, cmp.sampledDigest);
    EXPECT_DOUBLE_EQ(again.meanAbsSlowdownErrPct,
                     cmp.meanAbsSlowdownErrPct);
    EXPECT_DOUBLE_EQ(again.maxAbsTimeErrPct, cmp.maxAbsTimeErrPct);
}

TEST(SampledDifferential, ZeroGapCollapsesTheDifferential)
{
    exp::sweep::SweepSpec spec;
    spec.workloads = {wl::syntheticSmall(2, 60)};
    spec.frequencies = {Frequency::ghz(1.0), Frequency::ghz(2.0)};

    sim::SamplingConfig cfg;
    cfg.gapWindow = 0;
    auto cmp = exp::sweep::compareModes(spec, cfg, 1);

    EXPECT_EQ(cmp.sampledDigest, cmp.exactDigest);
    EXPECT_EQ(cmp.meanAbsTimeErrPct, 0.0);
    EXPECT_EQ(cmp.maxAbsTimeErrPct, 0.0);
    EXPECT_EQ(cmp.maxAbsSlowdownErrPct, 0.0);
    EXPECT_EQ(cmp.sampleTotals.ffActions, 0u);
}

namespace {

/** The fig10 managed-sampling recipe (see bench/fig10_managed_sampling
 *  and the CI sampled-accuracy job): adaptive placement over the
 *  default manager config. */
sim::SamplingConfig
managedRecipe()
{
    sim::SamplingConfig cfg;
    cfg.detailWindow = 10 * kTicksPerUs;
    cfg.gapWindow = 980 * kTicksPerUs;
    cfg.maxGapWindow = 7840 * kTicksPerUs;
    cfg.driftThresholdPermille = 200;
    return cfg;
}

/** Digest of the fig10 managed grid, run in @p mode. */
std::uint64_t
managedDigest(exp::SimMode mode, unsigned workers)
{
    std::vector<wl::WorkloadParams> wls;
    for (const auto &params : wl::dacapoSuite()) {
        if (wls.size() >= 4)
            break;
        wls.push_back(params);
    }
    const auto seeds = exp::sweep::SweepSpec::replicateSeeds(42, 1);
    auto cells = exp::sweep::sweepMap<exp::ManagedRunOutput>(
        wls.size(), workers, [&](std::size_t i) {
            mgr::ManagerConfig mc;
            exp::RunOptions ro;
            ro.mode = mode;
            ro.sampling = managedRecipe();
            ro.seed = seeds[0];
            return exp::runManaged(wls[i], mc, power::VfTable::haswell(),
                                   ro);
        });
    return exp::sweep::gridDigest(cells);
}

} // namespace

/**
 * The sampled *managed* fingerprint, pinned. Trips on any drift in the
 * managed fast path — per-operating-point era forking, forced detail
 * windows around DVFS transitions and GC boundaries, adaptive gap
 * stretching — at every worker count the acceptance gate names. The
 * grid and sampling config mirror the CI fig10_managed_sampling
 * invocation, which pins the same digest end to end.
 */
TEST(SampledSweepGolden, ManagedGridFingerprintPinnedAcrossWorkers)
{
    constexpr std::uint64_t kManagedSampledGolden = 0x71702eac03704a14ULL;
    for (unsigned workers : {1u, 2u, 8u})
        EXPECT_EQ(managedDigest(exp::SimMode::Sampled, workers),
                  kManagedSampledGolden)
            << "workers=" << workers;
}

/**
 * The exact managed fingerprint, pinned: the oracle fig10 measures
 * the managed fast path against. Trips on any drift in the energy
 * manager, its predictor, or the exact machine under DVFS.
 */
TEST(SampledSweepGolden, ManagedExactGridFingerprintPinnedAcrossWorkers)
{
    constexpr std::uint64_t kManagedExactGolden = 0xe5f7e8e70f6ffd94ULL;
    for (unsigned workers : {1u, 2u})
        EXPECT_EQ(managedDigest(exp::SimMode::Exact, workers),
                  kManagedExactGolden)
            << "workers=" << workers;
}

TEST(ManagedDifferential, ErrorBoundsAreDeterministicAndObserved)
{
    std::vector<wl::WorkloadParams> wls = {wl::syntheticSmall(2, 120),
                                           wl::syntheticSmall(4, 80)};
    mgr::ManagerConfig mc;
    auto table = power::VfTable::haswell();
    auto seeds = exp::sweep::SweepSpec::replicateSeeds(42, 2);

    auto cmp = exp::sweep::compareManagedModes(wls, mc, table,
                                               tinyWindows(), seeds, 2);
    EXPECT_EQ(cmp.cells, 4u);
    EXPECT_EQ(cmp.cellTimeErrPct.size(), 4u);
    EXPECT_EQ(cmp.slowdownSamples, 4u);
    EXPECT_GT(cmp.sampleTotals.ffActions, 0u);
    EXPECT_GE(cmp.maxAbsTimeErrPct, cmp.meanAbsTimeErrPct);
    EXPECT_GE(cmp.maxAbsSlowdownErrPct, cmp.meanAbsSlowdownErrPct);
    // The sampled side observed the manager: transitions were noted
    // and each one (plus every GC boundary) forced a detail window.
    EXPECT_EQ(cmp.sampleTotals.transitions, cmp.transitions);
    if (cmp.transitions > 0) {
        EXPECT_GT(cmp.sampleTotals.forcedWindows, 0u);
    }

    // Pure function of (workloads, config, seeds): digests and error
    // metrics reproduce at any worker count; only wall clocks move.
    auto again = exp::sweep::compareManagedModes(wls, mc, table,
                                                 tinyWindows(), seeds, 1);
    EXPECT_EQ(again.exactDigest, cmp.exactDigest);
    EXPECT_EQ(again.sampledDigest, cmp.sampledDigest);
    EXPECT_DOUBLE_EQ(again.meanAbsSlowdownErrPct,
                     cmp.meanAbsSlowdownErrPct);
    EXPECT_DOUBLE_EQ(again.maxAbsTimeErrPct, cmp.maxAbsTimeErrPct);
}

TEST(ManagedDifferential, ZeroGapCollapsesTheDifferential)
{
    std::vector<wl::WorkloadParams> wls = {wl::syntheticSmall(2, 60)};
    mgr::ManagerConfig mc;
    auto table = power::VfTable::haswell();

    sim::SamplingConfig cfg;
    cfg.gapWindow = 0;
    auto cmp = exp::sweep::compareManagedModes(wls, mc, table, cfg);

    EXPECT_EQ(cmp.sampledDigest, cmp.exactDigest);
    EXPECT_EQ(cmp.meanAbsTimeErrPct, 0.0);
    EXPECT_EQ(cmp.maxAbsTimeErrPct, 0.0);
    EXPECT_EQ(cmp.maxAbsSlowdownErrPct, 0.0);
    EXPECT_EQ(cmp.sampleTotals.ffActions, 0u);
    EXPECT_EQ(cmp.sampleTotals.forcedWindows, 0u);
}

TEST(SampledDifferential, GcInsideGapKeepsObservationsWellFormed)
{
    // A real benchmark whose collections overwhelmingly start and end
    // inside fast-forwarded gaps (97% of simulated time is gap under
    // the default windows).
    auto params = wl::benchmarkByName("pmd");

    exp::RunOptions exact;
    auto e = exp::runFixed(params, Frequency::ghz(2.0), exact);

    exp::RunOptions sampled = exact;
    sampled.mode = exp::SimMode::Sampled;
    auto s = exp::runFixed(params, Frequency::ghz(2.0), sampled);

    // The allocation stream is identical, so the collection schedule
    // must be too — fast-forwarding may compress GC time, never drop
    // or invent collections.
    ASSERT_GT(e.collections, 1u);
    EXPECT_EQ(s.collections, e.collections);
    EXPECT_GT(s.sampling.ffActions, 0u);

    // GC phase marks pair up (begin/end) and sit inside the run.
    ASSERT_EQ(s.record.gcMarks.size(), 2u * s.collections);
    for (std::size_t i = 0; i < s.record.gcMarks.size(); ++i) {
        const auto &m = s.record.gcMarks[i];
        EXPECT_EQ(m.begin, i % 2 == 0);
        EXPECT_LE(m.tick, s.totalTime);
        if (i > 0) {
            EXPECT_GE(m.tick, s.record.gcMarks[i - 1].tick);
        }
    }

    // The epoch decomposition the predictors consume stays monotone,
    // non-overlapping and bounded by the run.
    ASSERT_FALSE(s.record.epochs.empty());
    EXPECT_EQ(s.record.totalTime, s.totalTime);
    Tick prev_end = 0;
    for (const auto &ep : s.record.epochs) {
        EXPECT_GE(ep.start, prev_end);
        EXPECT_GT(ep.end, ep.start);
        prev_end = ep.end;
    }
    EXPECT_LE(prev_end, s.totalTime);
}
