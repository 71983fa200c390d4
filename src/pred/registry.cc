#include "pred/registry.hh"

namespace dvfs::pred {

const PredictorRegistry &
PredictorRegistry::instance()
{
    static const PredictorRegistry reg;
    return reg;
}

std::vector<std::unique_ptr<Predictor>>
PredictorRegistry::figure3Set() const
{
    const ModelSpec crit{BaseEstimator::Crit, false};
    const ModelSpec crit_burst{BaseEstimator::Crit, true};
    std::vector<std::unique_ptr<Predictor>> v;
    v.push_back(std::make_unique<MCritPredictor>(crit));
    v.push_back(std::make_unique<MCritPredictor>(crit_burst));
    v.push_back(std::make_unique<CoopPredictor>(crit));
    v.push_back(std::make_unique<CoopPredictor>(crit_burst));
    v.push_back(std::make_unique<DepPredictor>(crit, true));
    v.push_back(std::make_unique<DepPredictor>(crit_burst, true));
    return v;
}

} // namespace dvfs::pred
