/**
 * @file
 * Figure 5 reproduction: the energy manager's interval timeline.
 *
 * The paper's Figure 5 is a schematic of the manager's operation over
 * the first intervals (profile at f_max, pick a state, hold, re-
 * profile). This harness prints the actual decision timeline of the
 * manager on a benchmark so the mechanism is visible: quantum index,
 * time, chosen frequency, predicted slowdown, and whether the epoch
 * path or the aggregate fallback produced the estimate.
 *
 * Usage: fig5_manager_trace [--bench=xalan] [--threshold=0.05]
 *                           [--max-rows=24] [--holdoff=2]
 *                           [--csv=decisions.csv]
 */

#include <iostream>
#include <limits>

#include "bench_util.hh"
#include "exp/experiment.hh"
#include "exp/export.hh"
#include "exp/table.hh"

using namespace dvfs;

int
main(int argc, char **argv)
{
    bench::FlagSet args("fig5_manager_trace",
                        "the energy manager's decision timeline "
                        "(Figure 5)");
    args.add("bench", "NAME", "benchmark to run (default xalan)")
        .add("threshold", "X", "Tolerable-Slowdown (default 0.05)")
        .add("max-rows", "N", "decisions to print (default 24)")
        .add("holdoff", "N", "manager Hold-Off in quanta (default 2)")
        .add("csv", "PATH", "write the full decision timeline as CSV");
    args.parse(argc, argv);
    const std::string name = args.get("bench", "xalan");
    const double threshold =
        args.getDouble("threshold", 0.05, 0.0, bench::kAnyFinite);
    const auto max_rows =
        static_cast<std::size_t>(args.getInt("max-rows", 24, 0));

    auto vf = power::VfTable::haswell();
    mgr::ManagerConfig mc;
    mc.tolerableSlowdown = threshold;
    mc.holdOff = static_cast<std::uint32_t>(args.getInt(
        "holdoff", 2, 1, std::numeric_limits<std::uint32_t>::max()));

    auto out = exp::runManaged(wl::benchmarkByName(name), mc, vf);

    std::cout << "Figure 5: manager timeline for '" << name
              << "', Tolerable-Slowdown " << exp::Table::pct(threshold, 0)
              << ", Hold-Off " << mc.holdOff << ", quantum "
              << ticksToUs(mc.quantum) << " us\n\n";

    exp::Table table({"interval", "t (us)", "frequency",
                      "pred. slowdown", "estimate path"});
    std::size_t i = 0;
    for (const auto &d : out.decisions) {
        if (i >= max_rows)
            break;
        table.addRow({std::to_string(i + 1),
                      exp::Table::fmt(ticksToUs(d.tick), 1),
                      d.chosen.toString(),
                      exp::Table::pct(d.predictedSlowdown),
                      d.usedEpochs ? "DEP epochs" : "aggregate"});
        ++i;
    }
    table.print(std::cout);

    std::cout << "\nrun: " << ticksToMs(out.totalTime) << " ms, "
              << out.transitions << " DVFS transitions, average "
              << exp::Table::fmt(out.averageGHz, 2) << " GHz, "
              << out.decisions.size() << " decisions\n";

    const std::string csv = args.get("csv");
    if (!csv.empty()) {
        bench::writeFile(csv, [&](std::ostream &f) {
            exp::writeDecisionsCsv(f, out.decisions);
        });
        std::cout << "full decision timeline written to " << csv << "\n";
    }
    return 0;
}
