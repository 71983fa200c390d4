/**
 * @file
 * Reference implementation of the predictor families: the original
 * per-target walks over a RunView, kept verbatim as the oracle the
 * table-based predictors (pred/table.hh) must equal bit for bit.
 *
 * Each function walks the run once per call, re-reads the full
 * PerfCounters blocks, and rounds with std::llround: slow, and obviously
 * the paper's definitions.
 *
 * A family ("M+CRIT", "COOP", "DEP", "DEP/per-epoch") names the
 * whole-run decomposition; make() constructs the predictor of a family
 * over a ModelSpec, and predict() is its reference walk.
 */

#ifndef DVFS_TESTS_REFERENCE_PREDICTORS_HH
#define DVFS_TESTS_REFERENCE_PREDICTORS_HH

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "pred/predictors.hh"
#include "pred/run_view.hh"
#include "pred/scaling.hh"

namespace dvfs::test::reference {

/** pred::predictSpan as it was, with std::llround. */
inline Tick
spanLaw(Tick span, const uarch::PerfCounters &c, const pred::ModelSpec &spec,
        double ratio)
{
    Tick n = std::min(pred::nonscalingTime(c, spec), span);
    Tick s = span - n;
    return static_cast<Tick>(
               std::llround(static_cast<double>(s) * ratio)) + n;
}

inline double
freqRatio(Frequency base, Frequency target)
{
    return static_cast<double>(base.toMHz()) /
           static_cast<double>(target.toMHz());
}

/** M+CRIT: per-thread whole-lifetime scaling, slowest thread wins. */
inline Tick
mcrit(const pred::RunView &run, const pred::ModelSpec &spec,
      Frequency target)
{
    const double ratio = freqRatio(run.baseFreq(), target);
    Tick best = 0;
    for (const pred::ThreadSummary &t : run.threads()) {
        Tick span = t.exitTick - t.spawnTick;
        if (span == 0 ||
            static_cast<double>(t.totals.busyTime) <
                0.1 * static_cast<double>(span)) {
            continue;
        }
        best = std::max(best, spanLaw(span, t.totals, spec, ratio));
    }
    return best;
}

/** COOP: M+CRIT per GC phase, summed. */
inline Tick
coop(const pred::RunView &run, const pred::ModelSpec &spec,
     Frequency target)
{
    const double ratio = freqRatio(run.baseFreq(), target);
    const pred::EpochStore &epochs = run.epochs();
    const std::vector<pred::ThreadSummary> &threads = run.threads();

    std::vector<Tick> cuts;
    cuts.push_back(0);
    for (const pred::GcPhaseMark &m : run.gcMarks())
        cuts.push_back(m.tick);
    cuts.push_back(run.totalTime());

    Tick total = 0;
    std::size_t ei = 0;
    const std::size_t nthreads = threads.size();
    std::vector<Tick> busy(nthreads);
    std::vector<uarch::PerfCounters> acc(nthreads);

    for (std::size_t p = 0; p + 1 < cuts.size(); ++p) {
        const Tick a = cuts[p];
        const Tick b = cuts[p + 1];
        if (b <= a)
            continue;

        std::fill(busy.begin(), busy.end(), 0);
        std::fill(acc.begin(), acc.end(), uarch::PerfCounters{});
        while (ei < epochs.size() && epochs[ei].end <= b) {
            const pred::Epoch ep = epochs[ei];
            if (ep.start >= a) {
                for (const pred::EpochThread &et : ep.active) {
                    busy[et.tid] += et.delta.busyTime;
                    acc[et.tid] += et.delta;
                }
            }
            ++ei;
        }

        const Tick phase_len = b - a;
        Tick phase_pred = 0;
        for (std::size_t t = 0; t < nthreads; ++t) {
            if (busy[t] == 0)
                continue;
            Tick span = std::min(threads[t].exitTick, b) -
                        std::max(threads[t].spawnTick, a);
            span = std::min(span, phase_len);
            if (static_cast<double>(busy[t]) <
                0.1 * static_cast<double>(span)) {
                continue;
            }
            phase_pred =
                std::max(phase_pred, spanLaw(span, acc[t], spec, ratio));
        }
        total += phase_pred;
    }
    return total;
}

/** DEP over epochs [first, last): per-epoch or across-epoch CTP. */
inline Tick
depEpochRange(const pred::EpochStore &epochs, std::size_t first,
              std::size_t last, double ratio, const pred::ModelSpec &spec,
              bool across_epochs)
{
    std::vector<double> delta;
    auto delta_of = [&delta](os::ThreadId tid) -> double & {
        if (tid >= delta.size())
            delta.resize(tid + 1, 0.0);
        return delta[tid];
    };

    double total = 0.0;
    for (std::size_t i = first; i < last && i < epochs.size(); ++i) {
        const pred::Epoch ep = epochs[i];

        if (ep.active.empty()) {
            total += static_cast<double>(ep.duration());
            continue;
        }

        if (!across_epochs) {
            Tick crit = 0;
            for (const pred::EpochThread &et : ep.active) {
                crit = std::max(crit, spanLaw(et.delta.busyTime, et.delta,
                                              spec, ratio));
            }
            total += static_cast<double>(crit);
            continue;
        }

        double epoch_pred = 0.0;
        for (const pred::EpochThread &et : ep.active) {
            double a_t = static_cast<double>(
                spanLaw(et.delta.busyTime, et.delta, spec, ratio));
            double e_t = a_t - delta_of(et.tid);
            epoch_pred = std::max(epoch_pred, e_t);
        }
        epoch_pred = std::max(epoch_pred, 0.0);
        for (const pred::EpochThread &et : ep.active) {
            double a_t = static_cast<double>(
                spanLaw(et.delta.busyTime, et.delta, spec, ratio));
            delta_of(et.tid) += epoch_pred - a_t;
        }
        if (ep.stallTid != os::kNoThread)
            delta_of(ep.stallTid) = 0.0;
        total += epoch_pred;
    }
    return static_cast<Tick>(std::llround(total));
}

inline Tick
dep(const pred::RunView &run, const pred::ModelSpec &spec,
    bool across_epochs, Frequency target)
{
    const pred::EpochStore &epochs = run.epochs();
    return depEpochRange(epochs, 0, epochs.size(),
                         freqRatio(run.baseFreq(), target), spec,
                         across_epochs);
}

/** The reference walk of family @p family. */
inline Tick
predict(const std::string &family, const pred::ModelSpec &spec,
        const pred::RunView &run, Frequency target)
{
    if (family == "M+CRIT")
        return mcrit(run, spec, target);
    if (family == "COOP")
        return coop(run, spec, target);
    return dep(run, spec, family == "DEP", target);
}

/** Every family predict() and make() know, in table order. */
inline const std::vector<std::string> kFamilies = {"M+CRIT", "COOP", "DEP",
                                                   "DEP/per-epoch"};

/** The predictor of family @p family over @p spec. */
inline std::unique_ptr<pred::Predictor>
make(const std::string &family, const pred::ModelSpec &spec)
{
    if (family == "M+CRIT")
        return std::make_unique<pred::MCritPredictor>(spec);
    if (family == "COOP")
        return std::make_unique<pred::CoopPredictor>(spec);
    return std::make_unique<pred::DepPredictor>(spec, family == "DEP");
}

/**
 * Every BaseEstimator x {-BURST, +BURST}, in the ablation's column
 * order (STALL, STALL+BURST, LL, ..., ORACLE+BURST).
 */
inline std::vector<pred::ModelSpec>
estimatorLadder()
{
    std::vector<pred::ModelSpec> specs;
    for (pred::BaseEstimator base :
         {pred::BaseEstimator::StallTime, pred::BaseEstimator::LeadingLoads,
          pred::BaseEstimator::Crit, pred::BaseEstimator::Oracle}) {
        specs.push_back({base, false});
        specs.push_back({base, true});
    }
    return specs;
}

} // namespace dvfs::test::reference

#endif // DVFS_TESTS_REFERENCE_PREDICTORS_HH
