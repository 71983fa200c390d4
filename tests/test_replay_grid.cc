/**
 * @file
 * Trace-backed grids: record once, replay bit-identically.
 *
 * Exercises the full record/replay loop the harnesses use: recordGrid
 * persists a small synthetic grid, loadGrid reconstructs it, and every
 * predictor error computed from the replayed grid must be
 * bit-identical to the live path — the property the CI
 * trace-roundtrip job enforces on the real fig3 grid. Also covers the
 * consolidated exp::RunOptions surface and its deprecated aliases.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "exp/experiment.hh"
#include "exp/sweep/trace_cache.hh"
#include "pred/registry.hh"
#include "trace/replay.hh"
#include "trace/writer.hh"

using namespace dvfs;
using exp::sweep::ObservedGrid;
using exp::sweep::SweepSpec;

namespace {

SweepSpec
smallSpec()
{
    SweepSpec spec;
    spec.workloads = {wl::syntheticSmall(2, 50), wl::syntheticSmall(3, 40)};
    // Trace file names encode the workload name; synthetic variants
    // all spell "synthetic", so distinguish them.
    spec.workloads[0].name = "synthA";
    spec.workloads[1].name = "synthB";
    spec.frequencies = {Frequency::ghz(1.0), Frequency::ghz(4.0)};
    return spec;
}

/** A fresh per-test trace directory under the test tempdir. */
std::string
freshDir(const char *name)
{
    std::string dir = testing::TempDir() + "/dvfstrace_" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

bool
sameBits(double a, double b)
{
    std::uint64_t ua, ub;
    std::memcpy(&ua, &a, sizeof(ua));
    std::memcpy(&ub, &b, sizeof(ub));
    return ua == ub;
}

/** Every figure3 predictor error over a grid, in a fixed order. */
std::vector<double>
allErrors(const ObservedGrid &grid)
{
    std::vector<double> errs;
    trace::ReplayEngine engine;
    const Frequency base = Frequency::ghz(1.0);
    const Frequency target = Frequency::ghz(4.0);
    for (std::size_t w = 0; w < grid.spec.workloads.size(); ++w) {
        std::vector<trace::ReplayTarget> targets = {
            {target, grid.at(w, target).totalTime}};
        for (const auto &cell :
             engine.evaluate(grid.at(w, base).view(), targets))
            errs.push_back(cell.error);
    }
    return errs;
}

} // namespace

TEST(ReplayGrid, RecordedGridReplaysBitIdentically)
{
    const std::string dir = freshDir("roundtrip");

    auto live = exp::sweep::recordGrid(smallSpec(), 2, dir);
    ASSERT_FALSE(live.replayed);
    ASSERT_TRUE(exp::sweep::gridTracesPresent(smallSpec(), dir));

    auto replayed = exp::sweep::loadGrid(smallSpec(), dir);
    EXPECT_TRUE(replayed.replayed);
    ASSERT_EQ(replayed.cells.size(), live.cells.size());

    for (std::size_t i = 0; i < live.cells.size(); ++i) {
        EXPECT_EQ(replayed.cells[i].totalTime, live.cells[i].totalTime);
        EXPECT_EQ(replayed.cells[i].freq, live.cells[i].freq);
    }

    auto live_errs = allErrors(live);
    auto replay_errs = allErrors(replayed);
    ASSERT_EQ(live_errs.size(), replay_errs.size());
    for (std::size_t i = 0; i < live_errs.size(); ++i) {
        EXPECT_TRUE(sameBits(live_errs[i], replay_errs[i]))
            << "error " << i << ": live " << live_errs[i] << " vs replay "
            << replay_errs[i];
    }
    std::filesystem::remove_all(dir);
}

TEST(ReplayGrid, ObserveGridRecordsThenReplays)
{
    const std::string dir = freshDir("observe");

    // First call: no traces yet -> records (and persists).
    auto first = exp::sweep::observeGrid(smallSpec(), 1, dir);
    EXPECT_FALSE(first.replayed);

    // Second call: complete directory -> replays, same numbers.
    auto second = exp::sweep::observeGrid(smallSpec(), 1, dir);
    EXPECT_TRUE(second.replayed);
    auto a = allErrors(first), b = allErrors(second);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_TRUE(sameBits(a[i], b[i])) << "error " << i;

    // Empty dir means "never persist": the grid is always live.
    auto inmem = exp::sweep::observeGrid(smallSpec(), 1, "");
    EXPECT_FALSE(inmem.replayed);
    std::filesystem::remove_all(dir);
}

TEST(ReplayGrid, MismatchedTraceIsRejected)
{
    // Traces recorded for one spec must not satisfy a different one:
    // loading with a different seed must fail coordinate cross-checks
    // (the file name encodes the seed, so the lookup itself misses).
    const std::string dir = freshDir("mismatch");
    exp::sweep::recordGrid(smallSpec(), 1, dir);

    SweepSpec other = smallSpec();
    other.seeds = {43};
    EXPECT_FALSE(exp::sweep::gridTracesPresent(other, dir));
    EXPECT_THROW(exp::sweep::loadGrid(other, dir), trace::TraceError);
    std::filesystem::remove_all(dir);
}

TEST(ReplayGrid, ImpersonatingTraceIsCellMismatch)
{
    // A trace that PARSES but describes a different run than the cell
    // it was loaded for must be the structured CellMismatch kind —
    // here a 1 GHz recording renamed to pose as the 4 GHz cell.
    const std::string dir = freshDir("impersonate");
    exp::sweep::recordGrid(smallSpec(), 1, dir);

    const std::string low =
        dir + "/" + trace::traceFileName("synthA", 1000, 42);
    const std::string high =
        dir + "/" + trace::traceFileName("synthA", 4000, 42);
    std::filesystem::copy_file(
        low, high, std::filesystem::copy_options::overwrite_existing);

    try {
        exp::sweep::loadGrid(smallSpec(), dir);
        FAIL() << "impersonating trace was accepted";
    } catch (const trace::TraceError &e) {
        EXPECT_EQ(e.kind(), trace::TraceError::Kind::CellMismatch);
    }
    std::filesystem::remove_all(dir);
}

TEST(ReplayGrid, DuplicateCellPathsAreRejected)
{
    // Two workloads sharing a name would alias each other's trace
    // files (record would overwrite, load would impersonate); the
    // cache must refuse the spec up front with the structured
    // DuplicateCell kind — on both the record and the load path.
    const std::string dir = freshDir("dup");
    SweepSpec dup = smallSpec();
    dup.workloads[1].name = dup.workloads[0].name;

    try {
        exp::sweep::recordGrid(dup, 1, dir);
        FAIL() << "duplicate cell paths were accepted on record";
    } catch (const trace::TraceError &e) {
        EXPECT_EQ(e.kind(), trace::TraceError::Kind::DuplicateCell);
    }
    try {
        exp::sweep::loadGrid(dup, dir);
        FAIL() << "duplicate cell paths were accepted on load";
    } catch (const trace::TraceError &e) {
        EXPECT_EQ(e.kind(), trace::TraceError::Kind::DuplicateCell);
    }
    // In-memory grids never touch the filesystem: no name collision.
    EXPECT_NO_THROW(exp::sweep::recordGrid(dup, 1));
    std::filesystem::remove_all(dir);
}

TEST(ReplayGrid, ReplayEngineOrdersCellsTargetMajor)
{
    auto grid = exp::sweep::recordGrid(smallSpec(), 1);

    trace::ReplayEngine engine;
    const auto names = engine.predictorNames();
    std::vector<trace::ReplayTarget> targets = {
        {Frequency::ghz(4.0), grid.at(0, Frequency::ghz(4.0)).totalTime},
        {Frequency::ghz(1.0), 0},  // no ground truth
    };
    auto cells =
        engine.evaluate(grid.at(0, Frequency::ghz(1.0)).view(), targets);
    ASSERT_EQ(cells.size(), names.size() * targets.size());
    for (std::size_t t = 0; t < targets.size(); ++t) {
        for (std::size_t p = 0; p < names.size(); ++p) {
            const auto &cell = cells[t * names.size() + p];
            EXPECT_EQ(cell.predictor, names[p]);
            EXPECT_EQ(cell.target, targets[t].freq);
            EXPECT_GT(cell.predicted, 0u);
        }
    }
    // Unknown ground truth -> error stays 0, prediction still made.
    EXPECT_EQ(cells[names.size()].actual, 0u);
    EXPECT_EQ(cells[names.size()].error, 0.0);
}

TEST(ReplayGrid, RunOptionsSurface)
{
    auto params = wl::syntheticSmall(2, 40);

    // Consolidated options: one struct drives fixed and managed runs.
    exp::RunOptions opts;
    opts.seed = 7;
    auto fixed = exp::runFixed(params, Frequency::ghz(2.0), opts);
    EXPECT_FALSE(fixed.record.epochs.empty());
    EXPECT_EQ(fixed.mode, exp::SimMode::Exact);
    EXPECT_EQ(fixed.sampling.ffWindows, 0u);

    // Identical options replay bit-identically.
    auto fixed2 = exp::runFixed(params, Frequency::ghz(2.0), opts);
    EXPECT_EQ(fixed.totalTime, fixed2.totalTime);
    EXPECT_EQ(fixed.record.epochs.size(), fixed2.record.epochs.size());

    // Managed runs: default options == explicit defaults.
    mgr::ManagerConfig mc;
    mc.tolerableSlowdown = 0.10;
    auto table = power::VfTable::haswell();

    exp::RunOptions mopts;
    mopts.seed = 42;
    auto managed = exp::runManaged(params, mc, table, mopts);
    auto managed_default = exp::runManaged(params, mc, table);
    EXPECT_EQ(managed.totalTime, managed_default.totalTime);
    EXPECT_EQ(managed.decisions.size(), managed_default.decisions.size());
}
