/**
 * @file
 * Quickstart: build a small managed multithreaded workload, run it at
 * a base frequency, and use DEP+BURST to predict — then verify — its
 * execution time at a target frequency.
 *
 *   $ example_quickstart [base-mhz] [target-mhz]
 *
 * This is the 60-second tour of the library: workload construction
 * (wl), ground-truth simulation (os/uarch/rt via exp::runFixed), epoch
 * recording (pred::RunRecorder), and prediction (pred::DepPredictor).
 */

#include <iostream>

#include "args.hh"
#include "dvfs.hh"

using namespace dvfs;

int
main(int argc, char **argv)
{
    const char *usage = "usage: example_quickstart [base-mhz] [target-mhz]\n";
    examples::requireAtMost(argc, 2, usage);
    const auto base = examples::mhzArg(argc, argv, 1, 1000, usage);
    const auto target = examples::mhzArg(argc, argv, 2, 4000, usage);

    // 1. Describe a workload: 4 threads, managed allocation, locks.
    wl::WorkloadParams params = wl::syntheticSmall(4, 400);
    params.allocBytesPerItem = 2048;
    params.allocChunkBytes = 2048;
    params.lockProb = 0.3;

    // 2. Ground truth at the base frequency. runFixed wires up the
    //    quad-core machine (Table II), the managed runtime with its
    //    parallel collector, and the epoch recorder.
    std::cout << "running '" << params.name << "' at " << base.toString()
              << " ...\n";
    auto base_run = exp::runFixed(params, base);
    std::cout << "  time          : " << ticksToMs(base_run.totalTime)
              << " ms\n  collections   : " << base_run.collections
              << "\n  sync epochs   : " << base_run.record.epochs.size()
              << "\n  energy        : " << base_run.energy.total() * 1000
              << " mJ\n";

    // 3. Predict the target-frequency time from the base run alone.
    pred::DepPredictor depburst({pred::BaseEstimator::Crit, true}, true);
    Tick predicted = depburst.predict(base_run.record, target);
    std::cout << "\nDEP+BURST prediction for " << target.toString()
              << ": " << ticksToMs(predicted) << " ms\n";

    // 4. Verify against a real run at the target frequency.
    auto target_run = exp::runFixed(params, target);
    double error =
        pred::Predictor::relativeError(predicted, target_run.totalTime);
    std::cout << "measured at " << target.toString() << "        : "
              << ticksToMs(target_run.totalTime) << " ms\n"
              << "prediction error          : " << error * 100.0 << "%\n";

    // 5. Compare with the naive baseline.
    pred::MCritPredictor mcrit({pred::BaseEstimator::Crit, false});
    double naive_error = pred::Predictor::relativeError(
        mcrit.predict(base_run.record, target), target_run.totalTime);
    std::cout << "M+CRIT error (baseline)   : " << naive_error * 100.0
              << "%\n";
    return 0;
}
