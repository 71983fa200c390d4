/**
 * @file
 * PredictorRegistry: the Figure 3 predictor set.
 *
 * Each predictor the paper evaluates is one constructor call over a
 * ModelSpec (pred/predictors.hh); its name() is the spelling tables
 * and the wire carry. The registry only names the set that fig3, the
 * sweep differential, the replay engine and the examples share, so
 * its order is the paper's column order in one place.
 */

#ifndef DVFS_PRED_REGISTRY_HH
#define DVFS_PRED_REGISTRY_HH

#include <memory>
#include <vector>

#include "pred/predictors.hh"

namespace dvfs::pred {

class PredictorRegistry
{
  public:
    /** The process-wide registry (stateless). */
    static const PredictorRegistry &instance();

    /**
     * The Figure 3 zoo: M+CRIT, COOP and DEP (across-epoch CTP), each
     * with CRIT and CRIT+BURST, in the paper's column order. Fresh
     * instances on every call.
     */
    std::vector<std::unique_ptr<Predictor>> figure3Set() const;

  private:
    PredictorRegistry() = default;
};

} // namespace dvfs::pred

#endif // DVFS_PRED_REGISTRY_HH
