/**
 * @file
 * Figure 1 reproduction: the motivating comparison.
 *
 * Average absolute prediction error of M+CRIT (the naive multithreaded
 * extension of the state-of-the-art sequential predictor) versus
 * DEP+BURST, predicting from a 1 GHz base run to higher target
 * frequencies. The paper's headline: 27% vs 6% at the 4 GHz target.
 *
 * Usage: fig1_motivation [--targets=2000,3000,4000]
 */

#include <iostream>
#include <vector>

#include "bench_util.hh"
#include "exp/experiment.hh"
#include "exp/table.hh"
#include "pred/predictors.hh"

using namespace dvfs;

int
main(int argc, char **argv)
{
    bench::FlagSet args("fig1_motivation",
                        "M+CRIT vs DEP+BURST from a 1 GHz base "
                        "(Figure 1)");
    args.add("targets", "MHZ,...",
             "target frequencies in MHz (default 2000,3000,4000)");
    args.parse(argc, argv);
    std::vector<Frequency> targets;
    for (long mhz : args.getIntList("targets", {2000, 3000, 4000}, 1,
                                    100'000))
        targets.push_back(Frequency::mhz(static_cast<std::uint32_t>(mhz)));
    const Frequency base = Frequency::ghz(1.0);

    pred::MCritPredictor mcrit({pred::BaseEstimator::Crit, false});
    pred::DepPredictor depburst({pred::BaseEstimator::Crit, true}, true);

    std::cout << "Figure 1: average absolute prediction error, base "
              << base.toString() << "\n\n";

    std::vector<std::vector<double>> mcrit_err(targets.size());
    std::vector<std::vector<double>> dep_err(targets.size());

    for (const auto &params : wl::dacapoSuite()) {
        auto base_run = exp::runFixed(params, base);
        for (std::size_t i = 0; i < targets.size(); ++i) {
            Tick actual = exp::runFixed(params, targets[i]).totalTime;
            mcrit_err[i].push_back(pred::Predictor::relativeError(
                mcrit.predict(base_run.record, targets[i]), actual));
            dep_err[i].push_back(pred::Predictor::relativeError(
                depburst.predict(base_run.record, targets[i]), actual));
        }
    }

    exp::Table table({"target", "M+CRIT avg |err|", "DEP+BURST avg |err|"});
    for (std::size_t i = 0; i < targets.size(); ++i) {
        table.addRow({targets[i].toString(),
                      exp::Table::pct(exp::meanAbs(mcrit_err[i])),
                      exp::Table::pct(exp::meanAbs(dep_err[i]))});
    }
    table.print(std::cout);

    std::cout << "\nPaper reference at 4 GHz: M+CRIT 27%, DEP+BURST 6%.\n";
    return 0;
}
