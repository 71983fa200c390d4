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

/** The epochs of a PredictionTable, as the DEP walk reads them. */
class TableEpochs
{
  public:
    explicit TableEpochs(const PredictionTable &t)
        : _epochs(t.epochs()), _rows(t.epochRows()),
          _slots(t.threadSlots()), _widest(t.widestEpoch())
    {
    }

    std::size_t size() const { return _epochs.size(); }
    std::size_t slots() const { return _slots; }
    std::size_t widest() const { return _widest; }
    Tick idle(std::size_t i) const { return _epochs[i].idle; }
    std::uint32_t stall(std::size_t i) const { return _epochs[i].stall; }

    std::size_t
    rows(std::size_t i) const
    {
        return _epochs[i].rowEnd - _epochs[i].rowBegin;
    }

    const SpanRow &
    row(std::size_t i, std::size_t r) const
    {
        return _rows[_epochs[i].rowBegin + r];
    }

    std::uint32_t
    slot(std::size_t i, std::size_t r) const
    {
        return row(i, r).tid;
    }

    SpanSplit
    split(std::size_t i, std::size_t r, const ModelSpec &spec) const
    {
        return row(i, r).split(spec);
    }

  private:
    const std::vector<PredictionTable::EpochEntry> &_epochs;
    const std::vector<SpanRow> &_rows;
    std::size_t _slots;
    std::size_t _widest;
};

/**
 * Live epochs [first, last), read in place: the slots are the
 * ThreadIds themselves (small and dense in a live run).
 */
class LiveEpochs
{
  public:
    LiveEpochs(const std::vector<Epoch> &epochs, std::size_t first,
               std::size_t last)
        : _epochs(epochs), _first(first),
          _last(std::max(first, std::min(last, epochs.size())))
    {
        for (std::size_t i = _first; i < _last; ++i) {
            for (const EpochThread &et : epochs[i].active)
                _slots = std::max<std::size_t>(_slots,
                                               std::size_t{et.tid} + 1);
            _widest = std::max(_widest, epochs[i].active.size());
        }
    }

    std::size_t size() const { return _last - _first; }
    std::size_t slots() const { return _slots; }
    std::size_t widest() const { return _widest; }
    Tick idle(std::size_t i) const { return epoch(i).duration(); }
    std::size_t rows(std::size_t i) const { return epoch(i).active.size(); }

    std::uint32_t
    stall(std::size_t i) const
    {
        // A stall thread that never ran in the range has no delta
        // anyone reads.
        const os::ThreadId tid = epoch(i).stallTid;
        return tid < _slots ? tid : PredictionTable::kNoSlot;
    }

    std::uint32_t
    slot(std::size_t i, std::size_t r) const
    {
        return epoch(i).active[r].tid;
    }

    SpanSplit
    split(std::size_t i, std::size_t r, const ModelSpec &spec) const
    {
        const uarch::PerfCounters &c = epoch(i).active[r].delta;
        return SpanSplit(c.busyTime, nonscalingTime(c, spec));
    }

  private:
    const Epoch &epoch(std::size_t i) const { return _epochs[_first + i]; }

    const std::vector<Epoch> &_epochs;
    std::size_t _first;
    std::size_t _last;
    std::size_t _slots = 0;
    std::size_t _widest = 0;
};

/**
 * DEP over a sequence of epochs at N targets, @p ratio[0..N): per-epoch
 * CTP, or across-epoch CTP (Algorithm 1 of the paper). N is a
 * compile-time lane count so the per-target loops unroll.
 */
template <std::size_t N, class Epochs>
void
depLanes(const Epochs &src, const ModelSpec &spec, bool across_epochs,
         const double *ratio, Tick *out)
{
    double total[N] = {};

    // Algorithm 1's delta counters (accumulated slack), N per thread
    // slot, then the current epoch's N estimates per row.
    thread_local std::vector<double> scratch;
    double *delta = nullptr;
    double *est = nullptr;
    if (across_epochs) {
        scratch.assign((src.slots() + src.widest()) * N, 0.0);
        delta = scratch.data();
        est = delta + src.slots() * N;
    }

    for (std::size_t i = 0; i < src.size(); ++i) {
        const std::size_t rows = src.rows(i);
        if (rows == 0) {
            // Nothing was scheduled: the gap does not scale.
            const double idle = static_cast<double>(src.idle(i));
            for (std::size_t k = 0; k < N; ++k)
                total[k] += idle;
            continue;
        }

        if (!across_epochs) {
            // Per-epoch CTP: the epoch lasts as long as its slowest
            // active thread, with no memory of earlier epochs.
            Tick crit[N] = {};
            for (std::size_t r = 0; r < rows; ++r) {
                const SpanSplit sp = src.split(i, r, spec);
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
        for (std::size_t r = 0; r < rows; ++r) {
            const SpanSplit sp = src.split(i, r, spec);
            const double *d = delta + src.slot(i, r) * N;
            double *a = est + r * N;
            for (std::size_t k = 0; k < N; ++k) {
                a[k] = static_cast<double>(sp.at(ratio[k]));
                epoch_pred[k] = std::max(epoch_pred[k], a[k] - d[k]);
            }
        }
        for (std::size_t k = 0; k < N; ++k)
            epoch_pred[k] = std::max(epoch_pred[k], 0.0);
        for (std::size_t r = 0; r < rows; ++r) {
            double *d = delta + src.slot(i, r) * N;
            const double *a = est + r * N;
            for (std::size_t k = 0; k < N; ++k)
                d[k] += epoch_pred[k] - a[k];
        }
        const std::uint32_t stall = src.stall(i);
        if (stall != PredictionTable::kNoSlot)
            std::fill_n(delta + stall * N, N, 0.0);
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
template <class Epochs>
void
depWalk(const Epochs &src, const ModelSpec &spec, bool across_epochs,
        const double *ratio, std::size_t n, Tick *out)
{
    if (n == 1) {
        depLanes<1>(src, spec, across_epochs, ratio, out);
        return;
    }
    double padded[kChunk] = {};
    Tick lanes[kChunk] = {};
    const std::size_t width = n <= 2 ? 2 : n <= 4 ? 4 : kChunk;
    std::copy(ratio, ratio + n, padded);
    std::fill(padded + n, padded + width, ratio[n - 1]);
    if (width == 2)
        depLanes<2>(src, spec, across_epochs, padded, lanes);
    else if (width == 4)
        depLanes<4>(src, spec, across_epochs, padded, lanes);
    else
        depLanes<kChunk>(src, spec, across_epochs, padded, lanes);
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
    depWalk(TableEpochs(table), _spec, _acrossEpochs, ratio, n, out);
}

Tick
DepPredictor::predictEpochRange(const std::vector<Epoch> &epochs,
                                std::size_t first, std::size_t last,
                                double ratio) const
{
    Tick out = 0;
    depWalk(LiveEpochs(epochs, first, last), _spec, _acrossEpochs, &ratio,
            1, &out);
    return out;
}

} // namespace dvfs::pred
