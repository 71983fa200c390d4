/**
 * @file
 * Ablation: the per-thread estimator ladder inside DEP.
 *
 * Section II-A of the paper reviews the three sequential DVFS
 * estimators (Stall Time < Leading Loads < CRIT in accuracy) and the
 * paper builds DEP on CRIT. This harness quantifies that choice in our
 * reproduction by running the full DEP pipeline with each base
 * estimator, with and without BURST, plus the simulator's oracle
 * non-scaling counter as the ceiling.
 *
 * Ground truth (benchmark x {1 GHz, 4 GHz}) is an ObservedGrid that
 * serves both directions: live simulation on the sweep engine by
 * default, or recorded .dvfstrace replay via --trace-dir (recording
 * the traces first when the directory is incomplete).
 *
 * The DEP variants are constructed through the PredictorRegistry
 * ("DEP" family over each ModelSpec); table headers keep the ModelSpec
 * spellings (STALL, STALL+BURST, ...) since the columns ablate specs,
 * not registry families.
 *
 * Usage: ablation_estimators [--dir=up|down|both] [--only=<name>]
 *                            [--trace-dir=DIR] [--workers=N]
 *                            [--progress]
 */

#include <iostream>
#include <map>
#include <vector>

#include "bench_util.hh"
#include "exp/sweep/trace_cache.hh"
#include "exp/table.hh"
#include "pred/registry.hh"

using namespace dvfs;
using namespace dvfs::pred;

namespace {

void
runDirection(const char *label, Frequency base, Frequency target,
             const exp::sweep::ObservedGrid &grid)
{
    const std::vector<ModelSpec> specs = {
        {BaseEstimator::StallTime, false},
        {BaseEstimator::StallTime, true},
        {BaseEstimator::LeadingLoads, false},
        {BaseEstimator::LeadingLoads, true},
        {BaseEstimator::Crit, false},
        {BaseEstimator::Crit, true},
        {BaseEstimator::Oracle, false},
        {BaseEstimator::Oracle, true},
    };
    const auto &registry = PredictorRegistry::instance();

    std::vector<std::string> headers = {"benchmark"};
    for (const auto &s : specs)
        headers.push_back(s.name());
    exp::Table table(headers);

    std::map<std::string, std::vector<double>> errs;
    for (std::size_t w = 0; w < grid.spec.workloads.size(); ++w) {
        const auto &params = grid.spec.workloads[w];
        const PredictionTable base_table(grid.at(w, base).view(),
                                         PredictionTable::kEpochRows);
        Tick actual = grid.at(w, target).totalTime;

        std::vector<std::string> row = {params.name};
        for (const auto &s : specs) {
            auto p = registry.make("DEP", s);
            double e = Predictor::relativeError(
                p->predict(base_table, target), actual);
            errs[s.name()].push_back(e);
            row.push_back(exp::Table::pct(e));
        }
        table.addRow(std::move(row));
    }
    table.addSeparator();
    std::vector<std::string> avg = {"avg |err|"};
    for (const auto &s : specs)
        avg.push_back(exp::Table::pct(exp::meanAbs(errs[s.name()])));
    table.addRow(std::move(avg));

    std::cout << "\nEstimator ablation (" << label << "): DEP with each "
              << "base estimator, " << base.toString() << " -> "
              << target.toString() << "\n\n";
    table.print(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Args args(argc, argv);
    const std::string dir = args.get("dir", "both");
    const std::string only = args.get("only");
    const std::string trace_dir = args.get("trace-dir");

    exp::sweep::SweepSpec spec;
    for (const auto &params : wl::dacapoSuite()) {
        if (only.empty() || params.name == only)
            spec.workloads.push_back(params);
    }
    if (spec.workloads.empty()) {
        std::cerr << "no benchmark matches --only=" << only << "\n";
        return 1;
    }
    spec.frequencies = {Frequency::ghz(1.0), Frequency::ghz(4.0)};

    exp::sweep::SweepRunner::Options opts;
    opts.workers = bench::sweepWorkers(args);
    opts.progress = args.has("progress");
    opts.label = "ablation";
    auto grid = exp::sweep::observeGrid(spec, opts, trace_dir);
    if (!trace_dir.empty()) {
        std::cout << (grid.replayed ? "replaying traces from "
                                    : "recorded traces to ")
                  << trace_dir << "\n";
    }

    if (dir == "up" || dir == "both")
        runDirection("low-to-high", Frequency::ghz(1.0),
                     Frequency::ghz(4.0), grid);
    if (dir == "down" || dir == "both")
        runDirection("high-to-low", Frequency::ghz(4.0),
                     Frequency::ghz(1.0), grid);

    std::cout << "\nExpected ladder (paper Section II-A): STALL "
                 "underestimates the non-scaling\ncomponent (work "
                 "commits underneath misses), Leading Loads misses "
                 "variable\nlatency, CRIT tracks the critical "
                 "dependence path. ORACLE reports the base\nrun's "
                 "true exposed memory time; note that CRIT can beat "
                 "it: overlap\nshrinks at higher frequency, so "
                 "CRIT's deliberate over-counting of\nhidden misses "
                 "anticipates the exposure the oracle cannot.\n";
    return 0;
}
