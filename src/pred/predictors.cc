#include "pred/predictors.hh"

#include <algorithm>

#include "sim/log.hh"

namespace dvfs::pred {

const char *
baseEstimatorName(BaseEstimator e)
{
    switch (e) {
      case BaseEstimator::StallTime: return "STALL";
      case BaseEstimator::LeadingLoads: return "LL";
      case BaseEstimator::Crit: return "CRIT";
      case BaseEstimator::Oracle: return "ORACLE";
    }
    return "?";
}

std::string
ModelSpec::name() const
{
    std::string n = baseEstimatorName(base);
    if (burst)
        n += "+BURST";
    return n;
}

namespace {

constexpr std::size_t kChunk = Predictor::kTargetChunk;

/**
 * Sum, over groups of rows, of each group's slowest predicted row:
 * COOP's phases, or M+CRIT as one group. @p ends holds each group's
 * end offset into @p rows.
 */
void
slowestPerGroup(const std::vector<SpanRow> &rows,
                std::span<const std::uint32_t> ends, const ModelSpec &spec,
                const double *ratio, std::size_t n, Tick *out)
{
    Tick total[kChunk] = {};
    std::size_t r = 0;
    for (std::uint32_t end : ends) {
        Tick slowest[kChunk] = {};
        for (; r < end; ++r) {
            const SpanSplit sp = rows[r].split(spec);
            for (std::size_t k = 0; k < n; ++k)
                slowest[k] = std::max(slowest[k], sp.at(ratio[k]));
        }
        for (std::size_t k = 0; k < n; ++k)
            total[k] += slowest[k];
    }
    std::copy(total, total + n, out);
}

/**
 * DEP over a table's epochs at N targets, @p ratio[0..N): per-epoch
 * CTP, or across-epoch CTP (Algorithm 1 of the paper). N is a
 * compile-time lane count so the per-target loops unroll.
 */
template <std::size_t N>
void
depLanes(const PredictionTable &table, const ModelSpec &spec,
         bool across_epochs, const double *ratio, Tick *out)
{
    const std::vector<SpanRow> &rows = table.epochRows();
    double total[N] = {};

    // Algorithm 1's delta counters (accumulated slack), N per thread
    // slot, then the current epoch's N estimates per row.
    thread_local std::vector<double> scratch;
    double *delta = nullptr;
    double *est = nullptr;
    if (across_epochs) {
        scratch.assign((table.threadSlots() + table.widestEpoch()) * N,
                       0.0);
        delta = scratch.data();
        est = delta + table.threadSlots() * N;
    }

    for (const PredictionTable::EpochEntry &e : table.epochs()) {
        if (e.empty()) {
            // Nothing was scheduled: the gap does not scale.
            const double idle = static_cast<double>(e.idle);
            for (std::size_t k = 0; k < N; ++k)
                total[k] += idle;
            continue;
        }

        if (!across_epochs) {
            // Per-epoch CTP: the epoch lasts as long as its slowest
            // active thread, with no memory of earlier epochs.
            Tick crit[N] = {};
            for (std::uint32_t r = e.rowBegin; r < e.rowEnd; ++r) {
                const SpanSplit sp = rows[r].split(spec);
                for (std::size_t k = 0; k < N; ++k)
                    crit[k] = std::max(crit[k], sp.at(ratio[k]));
            }
            for (std::size_t k = 0; k < N; ++k)
                total[k] += static_cast<double>(crit[k]);
            continue;
        }

        // Across-epoch CTP: the epoch lasts as long as the thread with
        // the least banked slack needs; every other thread banks the
        // difference, and the thread that went to sleep loses its bank.
        double epoch_pred[N] = {};
        for (std::uint32_t r = e.rowBegin; r < e.rowEnd; ++r) {
            const SpanSplit sp = rows[r].split(spec);
            const double *d = delta + rows[r].tid * N;
            double *a = est + (r - e.rowBegin) * N;
            for (std::size_t k = 0; k < N; ++k) {
                a[k] = static_cast<double>(sp.at(ratio[k]));
                epoch_pred[k] = std::max(epoch_pred[k], a[k] - d[k]);
            }
        }
        for (std::size_t k = 0; k < N; ++k)
            epoch_pred[k] = std::max(epoch_pred[k], 0.0);
        for (std::uint32_t r = e.rowBegin; r < e.rowEnd; ++r) {
            double *d = delta + rows[r].tid * N;
            const double *a = est + (r - e.rowBegin) * N;
            for (std::size_t k = 0; k < N; ++k)
                d[k] += epoch_pred[k] - a[k];
        }
        if (e.stall != PredictionTable::kNoSlot)
            std::fill_n(delta + e.stall * N, N, 0.0);
        for (std::size_t k = 0; k < N; ++k)
            total[k] += epoch_pred[k];
    }
    for (std::size_t k = 0; k < N; ++k)
        out[k] = roundHalfAway(total[k]);
}

/**
 * DEP at @p ratio[0..n), n <= kChunk, on 1, 2, 4 or 8 lanes: lanes
 * past n repeat the last target and are dropped (targets never
 * interact, so padding changes no real lane).
 */
void
depWalk(const PredictionTable &table, const ModelSpec &spec,
        bool across_epochs, const double *ratio, std::size_t n, Tick *out)
{
    if (n == 1) {
        depLanes<1>(table, spec, across_epochs, ratio, out);
        return;
    }
    double padded[kChunk] = {};
    Tick lanes[kChunk] = {};
    const std::size_t width = n <= 2 ? 2 : n <= 4 ? 4 : kChunk;
    std::copy(ratio, ratio + n, padded);
    std::fill(padded + n, padded + width, ratio[n - 1]);
    if (width == 2)
        depLanes<2>(table, spec, across_epochs, padded, lanes);
    else if (width == 4)
        depLanes<4>(table, spec, across_epochs, padded, lanes);
    else
        depLanes<kChunk>(table, spec, across_epochs, padded, lanes);
    std::copy(lanes, lanes + n, out);
}

} // namespace

void
Predictor::predict(const PredictionTable &table,
                   std::span<const Frequency> targets,
                   std::span<Tick> out) const
{
    DVFS_ASSERT(out.size() == targets.size(),
                "one output per prediction target");
    DVFS_ASSERT(table.holds(tableRows()),
                "the table lacks the rows this predictor reads");
    const double base = static_cast<double>(table.baseFreq().toMHz());
    double ratio[kChunk] = {};
    for (std::size_t first = 0; first < targets.size(); first += kChunk) {
        const std::size_t n = std::min(kChunk, targets.size() - first);
        for (std::size_t k = 0; k < n; ++k)
            ratio[k] =
                base / static_cast<double>(targets[first + k].toMHz());
        predictChunk(table, ratio, n, out.data() + first);
    }
}

// ---------------------------------------------------------------- M+CRIT

std::string
MCritPredictor::name() const
{
    return "M+" + _spec.name();
}

void
MCritPredictor::predictChunk(const PredictionTable &table,
                             const double *ratio, std::size_t n,
                             Tick *out) const
{
    const auto end = static_cast<std::uint32_t>(table.mcritRows().size());
    slowestPerGroup(table.mcritRows(), {&end, 1}, _spec, ratio, n, out);
}

// ------------------------------------------------------------------ COOP

std::string
CoopPredictor::name() const
{
    return "COOP(" + _spec.name() + ")";
}

void
CoopPredictor::predictChunk(const PredictionTable &table,
                            const double *ratio, std::size_t n,
                            Tick *out) const
{
    slowestPerGroup(table.coopRows(), table.coopPhaseEnds(), _spec, ratio,
                    n, out);
}

// ------------------------------------------------------------------- DEP

std::string
DepPredictor::name() const
{
    std::string n = "DEP";
    if (_spec.burst)
        n += "+BURST";
    if (!_acrossEpochs)
        n += "(per-epoch CTP)";
    if (_spec.base != BaseEstimator::Crit)
        n += "[" + std::string(baseEstimatorName(_spec.base)) + "]";
    return n;
}

void
DepPredictor::predictChunk(const PredictionTable &table, const double *ratio,
                           std::size_t n, Tick *out) const
{
    depWalk(table, _spec, _acrossEpochs, ratio, n, out);
}

} // namespace dvfs::pred
