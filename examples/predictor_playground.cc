/**
 * @file
 * Predictor playground: sweep one workload knob and watch how each
 * DVFS predictor's error responds — the fastest way to build intuition
 * for *why* DEP+BURST works.
 *
 *   $ example_predictor_playground [knob] [base-mhz] [target-mhz]
 *
 * knobs:
 *   alloc   — allocation volume per item (store bursts; BURST's turf)
 *   locks   — critical-section probability (DEP's turf)
 *   chains  — pointer-chase depth (CRIT's turf)
 *   overlap — instructions overlapped with misses (hurts STALL most)
 */

#include <iostream>
#include <string>
#include <vector>

#include "args.hh"
#include "dvfs.hh"

using namespace dvfs;

namespace {

wl::WorkloadParams
configure(const std::string &knob, std::uint64_t value)
{
    auto p = wl::syntheticSmall(4, 200);
    if (knob == "alloc") {
        p.allocBytesPerItem = value;
        p.allocChunkBytes = std::max<std::uint64_t>(value, 64);
    } else if (knob == "locks") {
        p.lockProb = static_cast<double>(value) / 100.0;
        p.lockHoldInstr = 1200;
        p.numLocks = 1;
    } else if (knob == "chains") {
        p.chainDepth = static_cast<std::uint32_t>(value);
        p.chains = 1;
        p.pHot = 0.1;
        p.pWarm = 0.2;
    } else if (knob == "overlap") {
        p.clusterOverlapInstr = static_cast<std::uint32_t>(value);
    } else {
        fatal("unknown knob '%s' (alloc|locks|chains|overlap)",
              knob.c_str());
    }
    return p;
}

std::vector<std::uint64_t>
sweepValues(const std::string &knob)
{
    if (knob == "alloc")
        return {0, 512, 2048, 4096, 8192};
    if (knob == "locks")
        return {0, 20, 40, 60, 80};
    if (knob == "chains")
        return {1, 2, 4, 6, 8};
    return {0, 500, 1500, 4000, 10000};
}

} // namespace

int
main(int argc, char **argv)
{
    const char *usage = "usage: example_predictor_playground "
                        "[alloc|locks|chains|overlap] [base-mhz] "
                        "[target-mhz]\n";
    examples::requireAtMost(argc, 3, usage);
    const std::string knob = argc > 1 ? argv[1] : "alloc";
    const auto base = examples::mhzArg(argc, argv, 2, 1000, usage);
    const auto target = examples::mhzArg(argc, argv, 3, 4000, usage);

    auto predictors = pred::PredictorRegistry::instance().figure3Set();

    std::vector<std::string> headers = {knob, "speedup"};
    for (const auto &p : predictors)
        headers.push_back(p->name());
    exp::Table table(headers);

    std::cout << "sweeping '" << knob << "', predicting "
              << base.toString() << " -> " << target.toString() << "\n\n";

    for (std::uint64_t v : sweepValues(knob)) {
        auto params = configure(knob, v);
        auto base_run = exp::runFixed(params, base);
        auto target_run = exp::runFixed(params, target);

        std::vector<std::string> row = {
            std::to_string(v),
            exp::Table::fmt(static_cast<double>(base_run.totalTime) /
                                static_cast<double>(target_run.totalTime),
                            2)};
        for (const auto &p : predictors) {
            double e = pred::Predictor::relativeError(
                p->predict(base_run.record, target), target_run.totalTime);
            row.push_back(exp::Table::pct(e));
        }
        table.addRow(std::move(row));
    }
    table.print(std::cout);
    return 0;
}
