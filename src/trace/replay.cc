#include "trace/replay.hh"

#include "pred/registry.hh"
#include "sim/log.hh"

namespace dvfs::trace {

ReplayEngine::ReplayEngine()
    : ReplayEngine(pred::PredictorRegistry::instance().figure3Set())
{
}

ReplayEngine::ReplayEngine(
    std::vector<std::unique_ptr<pred::Predictor>> predictors)
    : _predictors(std::move(predictors))
{
    _names.reserve(_predictors.size());
    for (const auto &p : _predictors)
        _names.push_back(p->name());
}

void
ReplayEngine::predictGrid(const pred::PredictionTable &base,
                          std::span<const Frequency> targets,
                          std::span<Tick> out) const
{
    const std::size_t np = _predictors.size();
    DVFS_ASSERT(out.size() == targets.size() * np,
                "one output per (target, predictor) cell");
    std::vector<Tick> column(targets.size());
    for (std::size_t p = 0; p < np; ++p) {
        _predictors[p]->predict(base, targets, column);
        for (std::size_t t = 0; t < targets.size(); ++t)
            out[t * np + p] = column[t];
    }
}

std::vector<ReplayCell>
ReplayEngine::evaluate(const pred::RunView &base,
                       const std::vector<ReplayTarget> &targets) const
{
    std::vector<Frequency> freqs;
    freqs.reserve(targets.size());
    for (const ReplayTarget &t : targets)
        freqs.push_back(t.freq);
    std::vector<Tick> predicted(targets.size() * _predictors.size());
    predictGrid(pred::PredictionTable(base), freqs, predicted);

    std::vector<ReplayCell> cells;
    cells.reserve(predicted.size());
    for (std::size_t i = 0; i < predicted.size(); ++i) {
        const ReplayTarget &t = targets[i / _predictors.size()];
        ReplayCell cell;
        cell.predictor = _names[i % _predictors.size()];
        cell.target = t.freq;
        cell.predicted = predicted[i];
        cell.actual = t.actual;
        if (t.actual != 0) {
            cell.error =
                pred::Predictor::relativeError(cell.predicted, t.actual);
        }
        cells.push_back(std::move(cell));
    }
    return cells;
}

} // namespace dvfs::trace
