/**
 * @file
 * Criticality stacks for a benchmark run: which thread should a
 * criticality-aware (e.g. per-core DVFS) policy accelerate?
 *
 *   $ example_criticality_report [benchmark] [freq-mhz]
 *
 * Builds the Du Bois-style criticality stack from the same epoch
 * stream DEP uses (src/pred/criticality.hh) and prints it next to
 * per-thread busy time — the difference between the two columns is
 * exactly the serialization the naive M+CRIT predictor cannot see.
 */

#include <iostream>

#include "args.hh"
#include "dvfs.hh"

using namespace dvfs;

int
main(int argc, char **argv)
{
    const char *usage =
        "usage: example_criticality_report [benchmark] [freq-mhz]\n";
    examples::requireAtMost(argc, 2, usage);
    const std::string name = argc > 1 ? argv[1] : "avrora";
    const auto freq = examples::mhzArg(argc, argv, 2, 1000, usage);

    auto params = wl::benchmarkByName(name);
    auto out = exp::runFixed(params, freq);
    pred::CriticalityStack stack(out.record);

    std::cout << "criticality stack for '" << name << "' at "
              << freq.toString() << " (" << out.record.epochs.size()
              << " epochs over " << ticksToMs(out.totalTime)
              << " ms)\n\n";

    exp::Table table({"thread", "criticality (ms)", "share", "busy (ms)",
                      "serialization"});
    for (const auto &s : stack.shares()) {
        const auto &summary = out.record.threads.at(s.tid);
        // A thread whose criticality exceeds its equal-share of busy
        // time spends time as the lone runner: it serializes the app.
        double serial = static_cast<double>(s.criticality) /
                        std::max<double>(1.0, summary.totals.busyTime);
        table.addRow({std::to_string(s.tid),
                      exp::Table::fmt(ticksToMs(s.criticality), 3),
                      exp::Table::pct(s.fraction),
                      exp::Table::fmt(ticksToMs(summary.totals.busyTime),
                                      3),
                      exp::Table::fmt(serial, 2)});
    }
    table.print(std::cout);

    std::cout << "\nidle (no thread scheduled): "
              << ticksToMs(stack.idleTime()) << " ms\n"
              << "accounted: " << ticksToMs(stack.accountedTime())
              << " of " << ticksToMs(out.totalTime) << " ms\n"
              << "most critical thread: tid " << stack.mostCritical()
              << "\n";
    return 0;
}
