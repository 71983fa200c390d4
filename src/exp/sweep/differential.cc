#include "exp/sweep/differential.hh"

#include <chrono>
#include <cmath>

#include "exp/sweep/fingerprint.hh"
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

std::uint64_t
gridDigest(const SweepResult &res)
{
    Fnv1a h;
    for (const auto &cell : res.cells)
        h.mix(fingerprintRun(cell));
    return h.digest();
}

namespace {

SweepResult
runGrid(SweepSpec spec, unsigned workers, bool progress,
        const std::string &label, double &wallSec)
{
    SweepRunner::Options ro;
    ro.workers = workers;
    ro.progress = progress;
    ro.label = label;
    const auto t0 = std::chrono::steady_clock::now();
    SweepResult res = SweepRunner(std::move(spec), ro).run();
    const auto t1 = std::chrono::steady_clock::now();
    wallSec = std::chrono::duration<double>(t1 - t0).count();
    return res;
}

} // namespace

ModeComparison
compareModes(const SweepSpec &spec, const sim::SamplingConfig &sampling,
             unsigned workers, bool progress)
{
    ModeComparison cmp;
    cmp.spec = spec;
    cmp.sampling = sampling;

    SweepSpec exactSpec = spec;
    exactSpec.runOptions.mode = SimMode::Exact;
    // Predictors read the sampled base record, so the sampled side
    // must keep its event trace; the exact side needs only timings.
    SweepSpec sampledSpec = spec;
    sampledSpec.runOptions.mode = SimMode::Sampled;
    sampledSpec.runOptions.sampling = sampling;

    SweepResult exact = runGrid(std::move(exactSpec), workers, progress,
                                "exact", cmp.exactWallSec);
    SweepResult sampled = runGrid(std::move(sampledSpec), workers,
                                  progress, "sampled", cmp.sampledWallSec);

    cmp.exactDigest = gridDigest(exact);
    cmp.sampledDigest = gridDigest(sampled);

    // Per-cell total-time error, and summed sampling provenance.
    const std::size_t n = exact.cells.size();
    cmp.cellTimeErrPct.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double et = static_cast<double>(exact.cells[i].totalTime);
        const double st = static_cast<double>(sampled.cells[i].totalTime);
        const double err = et > 0.0 ? (st - et) / et * 100.0 : 0.0;
        cmp.cellTimeErrPct.push_back(err);
        cmp.meanAbsTimeErrPct += std::fabs(err);
        cmp.maxAbsTimeErrPct = std::max(cmp.maxAbsTimeErrPct,
                                        std::fabs(err));
        cmp.sampleTotals.accumulate(sampled.cells[i].sampling);
    }
    if (n > 0)
        cmp.meanAbsTimeErrPct /= static_cast<double>(n);

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
                const double err =
                    std::fabs(predicted - actual) / actual * 100.0;
                cmp.meanAbsSlowdownErrPct += err;
                cmp.maxAbsSlowdownErrPct =
                    std::max(cmp.maxAbsSlowdownErrPct, err);
                cmp.slowdownSamples += 1;
            }
        }
    }
    if (cmp.slowdownSamples > 0)
        cmp.meanAbsSlowdownErrPct /=
            static_cast<double>(cmp.slowdownSamples);

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
            smTables.emplace_back(
                pred::SampledView(smBase.record, smBase.sampling));
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
                    const double err =
                        std::fabs(predicted - actual) / actual * 100.0;
                    b.meanAbsPct += err;
                    b.maxAbsPct = std::max(b.maxAbsPct, err);
                    const double exPredicted =
                        static_cast<double>(p->predict(exTable, fs[f])) /
                        static_cast<double>(exBase.totalTime);
                    const double exErr =
                        std::fabs(exPredicted - actual) / actual * 100.0;
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

std::uint64_t
managedGridDigest(const std::vector<ManagedRunOutput> &cells)
{
    Fnv1a h;
    for (const auto &cell : cells)
        h.mix(fingerprintRun(cell));
    return h.digest();
}

namespace {

/** One managed grid: (workload x seed) cells in flattened order. */
std::vector<ManagedRunOutput>
runManagedGrid(const std::vector<wl::WorkloadParams> &workloads,
               const std::vector<std::uint64_t> &seeds,
               const mgr::ManagerConfig &mgrCfg,
               const power::VfTable &table, const RunOptions &opts,
               unsigned workers, double &wallSec)
{
    const std::size_t n = workloads.size() * seeds.size();
    const auto t0 = std::chrono::steady_clock::now();
    auto cells = sweepMap<ManagedRunOutput>(
        n, workers, [&](std::size_t i) {
            RunOptions ro = opts;
            ro.seed = seeds[i % seeds.size()];
            return runManaged(workloads[i / seeds.size()], mgrCfg, table,
                              ro);
        });
    const auto t1 = std::chrono::steady_clock::now();
    wallSec = std::chrono::duration<double>(t1 - t0).count();
    return cells;
}

/** Fixed-at-highest baselines for the same cells, one per (w, s). */
std::vector<FixedRunOutput>
runBaselineGrid(const std::vector<wl::WorkloadParams> &workloads,
                const std::vector<std::uint64_t> &seeds,
                const power::VfTable &table, const RunOptions &opts,
                unsigned workers)
{
    const std::size_t n = workloads.size() * seeds.size();
    return sweepMap<FixedRunOutput>(n, workers, [&](std::size_t i) {
        RunOptions ro = opts;
        ro.seed = seeds[i % seeds.size()];
        return runFixed(workloads[i / seeds.size()], table.highest(), ro);
    });
}

} // namespace

ManagedComparison
compareManagedModes(const std::vector<wl::WorkloadParams> &workloads,
                    const mgr::ManagerConfig &mgrCfg,
                    const power::VfTable &table,
                    const sim::SamplingConfig &sampling,
                    const std::vector<std::uint64_t> &seeds,
                    unsigned workers, bool progress)
{
    if (workloads.empty() || seeds.empty())
        fatal("compareManagedModes: empty workload or seed dimension");
    (void)progress;

    ManagedComparison cmp;
    cmp.sampling = sampling;
    cmp.cells = workloads.size() * seeds.size();

    RunOptions exactOpts;
    exactOpts.mode = SimMode::Exact;
    RunOptions sampledOpts;
    sampledOpts.mode = SimMode::Sampled;
    sampledOpts.sampling = sampling;

    auto exact = runManagedGrid(workloads, seeds, mgrCfg, table,
                                exactOpts, workers, cmp.exactWallSec);
    auto sampled = runManagedGrid(workloads, seeds, mgrCfg, table,
                                  sampledOpts, workers,
                                  cmp.sampledWallSec);
    auto exactBase =
        runBaselineGrid(workloads, seeds, table, exactOpts, workers);
    auto sampledBase =
        runBaselineGrid(workloads, seeds, table, sampledOpts, workers);

    cmp.exactDigest = managedGridDigest(exact);
    cmp.sampledDigest = managedGridDigest(sampled);

    cmp.cellTimeErrPct.reserve(cmp.cells);
    for (std::size_t i = 0; i < cmp.cells; ++i) {
        const double et = static_cast<double>(exact[i].totalTime);
        const double st = static_cast<double>(sampled[i].totalTime);
        const double err = et > 0.0 ? (st - et) / et * 100.0 : 0.0;
        cmp.cellTimeErrPct.push_back(err);
        cmp.meanAbsTimeErrPct += std::fabs(err);
        cmp.maxAbsTimeErrPct =
            std::max(cmp.maxAbsTimeErrPct, std::fabs(err));

        // Achieved slowdown, normalized within-mode so the sampled
        // path's systematic time bias cancels (the same ratio trick
        // compareModes uses).
        const double exactS =
            static_cast<double>(exact[i].totalTime) /
            static_cast<double>(exactBase[i].totalTime);
        const double sampledS =
            static_cast<double>(sampled[i].totalTime) /
            static_cast<double>(sampledBase[i].totalTime);
        const double sErr = std::fabs(sampledS - exactS) / exactS * 100.0;
        cmp.meanAbsSlowdownErrPct += sErr;
        cmp.maxAbsSlowdownErrPct =
            std::max(cmp.maxAbsSlowdownErrPct, sErr);
        cmp.slowdownSamples += 1;

        cmp.sampleTotals.accumulate(sampled[i].sampling);
        cmp.transitions += sampled[i].transitions;
    }
    cmp.meanAbsTimeErrPct /= static_cast<double>(cmp.cells);
    cmp.meanAbsSlowdownErrPct /= static_cast<double>(cmp.cells);
    return cmp;
}

} // namespace dvfs::exp::sweep
