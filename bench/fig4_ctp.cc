/**
 * @file
 * Figure 4 reproduction: across-epoch vs per-epoch critical thread
 * prediction (CTP) for DEP+BURST.
 *
 * The paper reports that carrying thread slack across epochs
 * (Algorithm 1) lowers the average absolute error from 10% to 6% at
 * 4 GHz (base 1 GHz) and from 14% to 8% at 1 GHz (base 4 GHz).
 *
 * Both directions read the Figure 3 grid's 1 and 4 GHz columns, each
 * cell simulated once on the sweep pool at its default width.
 *
 * Usage: fig4_ctp [--only=<benchmark>]
 */

#include <iostream>
#include <vector>

#include "bench_util.hh"
#include "exp/sweep/trace_cache.hh"
#include "exp/table.hh"
#include "pred/predictors.hh"

using namespace dvfs;

namespace {

void
runDirection(const char *label, Frequency base, Frequency target,
             const exp::sweep::ObservedGrid &grid)
{
    const pred::ModelSpec spec{pred::BaseEstimator::Crit, true};
    pred::DepPredictor across(spec, true);
    pred::DepPredictor per_epoch(spec, false);

    exp::Table table({"benchmark", "per-epoch CTP", "across-epoch CTP"});
    std::vector<double> per_errs, across_errs;

    for (std::size_t w = 0; w < grid.spec.workloads.size(); ++w) {
        const auto &base_run = grid.at(w, base).view();
        Tick actual = grid.at(w, target).totalTime;
        double pe = pred::Predictor::relativeError(
            per_epoch.predict(base_run, target), actual);
        double ae = pred::Predictor::relativeError(
            across.predict(base_run, target), actual);
        per_errs.push_back(pe);
        across_errs.push_back(ae);
        table.addRow({grid.spec.workloads[w].name, exp::Table::pct(pe),
                      exp::Table::pct(ae)});
    }
    table.addSeparator();
    table.addRow({"avg |err|", exp::Table::pct(exp::meanAbs(per_errs)),
                  exp::Table::pct(exp::meanAbs(across_errs))});

    std::cout << "\nFigure 4 (" << label << "): DEP+BURST, base "
              << base.toString() << " -> target " << target.toString()
              << "\n\n";
    table.print(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    bench::FlagSet args("fig4_ctp",
                        "across-epoch vs per-epoch critical thread "
                        "prediction (Figure 4)");
    args.add("only", "NAME", "run a single DaCapo benchmark");
    args.parse(argc, argv);

    exp::sweep::SweepSpec spec = bench::fig3GridSpec(0, args.get("only"));
    spec.frequencies = {Frequency::ghz(1.0), Frequency::ghz(4.0)};
    const auto grid =
        exp::sweep::observeGrid(spec, exp::sweep::defaultWorkers(), "");

    runDirection("low-to-high", Frequency::ghz(1.0), Frequency::ghz(4.0),
                 grid);
    runDirection("high-to-low", Frequency::ghz(4.0), Frequency::ghz(1.0),
                 grid);
    std::cout << "\nPaper reference: per-epoch 10% -> across-epoch 6% "
                 "(1->4 GHz); per-epoch 14% -> across-epoch 8% "
                 "(4->1 GHz).\n";
    return 0;
}
