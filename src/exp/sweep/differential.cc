#include "exp/sweep/differential.hh"

#include <chrono>
#include <cmath>

#include "pred/registry.hh"
#include "pred/run_view.hh"
#include "sim/log.hh"

namespace dvfs::exp::sweep {

double
ModeComparison::meanPredictorErrPct() const
{
    if (predictors.empty())
        return 0.0;
    double s = 0.0;
    for (const auto &p : predictors)
        s += p.meanAbsPct;
    return s / static_cast<double>(predictors.size());
}

double
ModeComparison::maxPredictorErrPct() const
{
    double m = 0.0;
    for (const auto &p : predictors)
        m = std::max(m, p.maxAbsPct);
    return m;
}

namespace {

/** Run @p fn, storing the wall-clock seconds it took in @p wallSec. */
template <typename Fn>
auto
timed(Fn &&fn, double &wallSec)
{
    const auto t0 = std::chrono::steady_clock::now();
    auto res = fn();
    const auto t1 = std::chrono::steady_clock::now();
    wallSec = std::chrono::duration<double>(t1 - t0).count();
    return res;
}

/**
 * The per-cell half of every comparison: both grid digests, signed
 * total-time error, and the sampled side's summed provenance.
 */
template <typename Out>
void
compareCells(const std::vector<Out> &exact, const std::vector<Out> &sampled,
             ModeComparison &cmp)
{
    cmp.cells = exact.size();
    cmp.exactDigest = gridDigest(exact);
    cmp.sampledDigest = gridDigest(sampled);
    cmp.cellTimeErrPct.reserve(cmp.cells);
    for (std::size_t i = 0; i < cmp.cells; ++i) {
        const double et = static_cast<double>(exact[i].totalTime);
        const double st = static_cast<double>(sampled[i].totalTime);
        const double err = et > 0.0 ? (st - et) / et * 100.0 : 0.0;
        cmp.cellTimeErrPct.push_back(err);
        cmp.meanAbsTimeErrPct += std::fabs(err);
        cmp.maxAbsTimeErrPct = std::max(cmp.maxAbsTimeErrPct,
                                        std::fabs(err));
        cmp.sampleTotals.accumulate(sampled[i].sampling);
    }
    if (cmp.cells > 0)
        cmp.meanAbsTimeErrPct /= static_cast<double>(cmp.cells);
}

/** |predicted - actual| / actual, percent. */
double
absErrPct(double predicted, double actual)
{
    return std::fabs(predicted - actual) / actual * 100.0;
}

/** Fold one slowdown-error sample into the headline gate. */
void
addSlowdownSample(ModeComparison &cmp, double predicted, double actual)
{
    const double err = absErrPct(predicted, actual);
    cmp.meanAbsSlowdownErrPct += err;
    cmp.maxAbsSlowdownErrPct = std::max(cmp.maxAbsSlowdownErrPct, err);
    cmp.slowdownSamples += 1;
}

/** Turn the summed slowdown errors into their mean. */
void
finishSlowdown(ModeComparison &cmp)
{
    if (cmp.slowdownSamples > 0)
        cmp.meanAbsSlowdownErrPct /=
            static_cast<double>(cmp.slowdownSamples);
}

/**
 * One (workload x seed) grid, flattened seed-innermost: @p run on
 * each cell's workload with @p opts at the cell's seed.
 */
template <typename Out, typename Run>
std::vector<Out>
runCells(const std::vector<wl::WorkloadParams> &workloads,
         const std::vector<std::uint64_t> &seeds, const RunOptions &opts,
         unsigned workers, Run &&run)
{
    return sweepMap<Out>(
        workloads.size() * seeds.size(), workers, [&](std::size_t i) {
            RunOptions ro = opts;
            ro.seed = seeds[i % seeds.size()];
            return run(workloads[i / seeds.size()], ro);
        });
}

} // namespace

ModeComparison
compareModes(const SweepSpec &spec, const sim::SamplingConfig &sampling,
             unsigned workers)
{
    ModeComparison cmp;
    cmp.sampling = sampling;

    SweepSpec exactSpec = spec;
    exactSpec.runOptions.mode = SimMode::Exact;
    // Predictors read the sampled base record, so the sampled side
    // must keep its event trace; the exact side needs only timings.
    SweepSpec sampledSpec = spec;
    sampledSpec.runOptions.mode = SimMode::Sampled;
    sampledSpec.runOptions.sampling = sampling;

    SweepResult exact = timed([&] { return runSweep(exactSpec, workers); },
                              cmp.exactWallSec);
    SweepResult sampled = timed(
        [&] { return runSweep(sampledSpec, workers); }, cmp.sampledWallSec);
    compareCells(exact.cells, sampled.cells, cmp);

    const auto &ws = spec.workloads;
    const auto &fs = spec.frequencies;
    const auto &ss = spec.seeds;

    // Headline gate: the sampled simulation as a slowdown predictor.
    // Ratios against the base frequency cancel systematic per-cell
    // bias, matching the paper's use case (relative DVFS performance).
    for (std::size_t w = 0; w < ws.size(); ++w) {
        for (std::size_t s = 0; s < ss.size(); ++s) {
            const auto &exBase = exact.at(w, std::size_t{0}, s);
            const auto &smBase = sampled.at(w, std::size_t{0}, s);
            for (std::size_t f = 1; f < fs.size(); ++f) {
                const double actual =
                    static_cast<double>(exact.at(w, f, s).totalTime) /
                    static_cast<double>(exBase.totalTime);
                const double predicted =
                    static_cast<double>(sampled.at(w, f, s).totalTime) /
                    static_cast<double>(smBase.totalTime);
                addSlowdownSample(cmp, predicted, actual);
            }
        }
    }
    finishSlowdown(cmp);

    // Per-predictor envelopes: predict from the sampled base record,
    // score against the slowdown the exact runs exhibit. The
    // exact-fed envelope isolates the predictor's inherent model
    // error from what sampling adds on top. Each base record is
    // prepared once into a table every predictor reads.
    std::vector<pred::PredictionTable> smTables, exTables;
    for (std::size_t w = 0; w < ws.size(); ++w) {
        for (std::size_t s = 0; s < ss.size(); ++s) {
            const auto &exBase = exact.at(w, std::size_t{0}, s);
            const auto &smBase = sampled.at(w, std::size_t{0}, s);
            smTables.emplace_back(pred::RecordView(smBase.record));
            exTables.emplace_back(pred::RecordView(exBase.record));
        }
    }
    auto zoo = pred::PredictorRegistry::instance().figure3Set();
    for (const auto &p : zoo) {
        PredictorErrorBound b;
        b.predictor = p->name();
        for (std::size_t w = 0; w < ws.size(); ++w) {
            for (std::size_t s = 0; s < ss.size(); ++s) {
                const auto &exBase = exact.at(w, std::size_t{0}, s);
                const auto &smBase = sampled.at(w, std::size_t{0}, s);
                const auto &smTable = smTables[w * ss.size() + s];
                const auto &exTable = exTables[w * ss.size() + s];
                for (std::size_t f = 1; f < fs.size(); ++f) {
                    const auto &exTgt = exact.at(w, f, s);
                    const double actual =
                        static_cast<double>(exTgt.totalTime) /
                        static_cast<double>(exBase.totalTime);
                    const double predicted =
                        static_cast<double>(p->predict(smTable, fs[f])) /
                        static_cast<double>(smBase.totalTime);
                    const double err = absErrPct(predicted, actual);
                    b.meanAbsPct += err;
                    b.maxAbsPct = std::max(b.maxAbsPct, err);
                    const double exPredicted =
                        static_cast<double>(p->predict(exTable, fs[f])) /
                        static_cast<double>(exBase.totalTime);
                    const double exErr = absErrPct(exPredicted, actual);
                    b.meanAbsPctExactFed += exErr;
                    b.maxAbsPctExactFed =
                        std::max(b.maxAbsPctExactFed, exErr);
                    b.samples += 1;
                }
            }
        }
        if (b.samples > 0) {
            b.meanAbsPct /= static_cast<double>(b.samples);
            b.meanAbsPctExactFed /= static_cast<double>(b.samples);
        }
        cmp.predictors.push_back(std::move(b));
    }
    return cmp;
}

ModeComparison
compareManagedModes(const std::vector<wl::WorkloadParams> &workloads,
                    const mgr::ManagerConfig &mgrCfg,
                    const power::VfTable &table,
                    const sim::SamplingConfig &sampling,
                    const std::vector<std::uint64_t> &seeds,
                    unsigned workers)
{
    if (workloads.empty() || seeds.empty())
        fatal("compareManagedModes: empty workload or seed dimension");

    ModeComparison cmp;
    cmp.sampling = sampling;

    RunOptions exactOpts;
    exactOpts.mode = SimMode::Exact;
    RunOptions sampledOpts;
    sampledOpts.mode = SimMode::Sampled;
    sampledOpts.sampling = sampling;

    auto managed = [&](const wl::WorkloadParams &w, const RunOptions &ro) {
        return runManaged(w, mgrCfg, table, ro);
    };
    auto highest = [&](const wl::WorkloadParams &w, const RunOptions &ro) {
        return runFixed(w, table.highest(), ro);
    };
    auto exact = timed(
        [&] {
            return runCells<ManagedRunOutput>(workloads, seeds, exactOpts,
                                              workers, managed);
        },
        cmp.exactWallSec);
    auto sampled = timed(
        [&] {
            return runCells<ManagedRunOutput>(workloads, seeds,
                                              sampledOpts, workers,
                                              managed);
        },
        cmp.sampledWallSec);
    auto exactBase = runCells<FixedRunOutput>(workloads, seeds, exactOpts,
                                              workers, highest);
    auto sampledBase = runCells<FixedRunOutput>(
        workloads, seeds, sampledOpts, workers, highest);
    compareCells(exact, sampled, cmp);

    // Achieved slowdown, normalized within-mode so the sampled path's
    // systematic time bias cancels (the same ratio trick compareModes
    // uses).
    for (std::size_t i = 0; i < cmp.cells; ++i) {
        const double exactS =
            static_cast<double>(exact[i].totalTime) /
            static_cast<double>(exactBase[i].totalTime);
        const double sampledS =
            static_cast<double>(sampled[i].totalTime) /
            static_cast<double>(sampledBase[i].totalTime);
        addSlowdownSample(cmp, sampledS, exactS);
        cmp.transitions += sampled[i].transitions;
    }
    finishSlowdown(cmp);
    return cmp;
}

} // namespace dvfs::exp::sweep
