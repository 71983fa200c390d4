/**
 * @file
 * Scenario: a latency-tolerant managed service wants to cut its energy
 * bill. The operator tolerates a bounded slowdown; the energy manager
 * (Section VI of the paper) picks DVFS states per scheduling quantum
 * using DEP+BURST.
 *
 *   $ example_energy_capped_service [benchmark] [slowdown-percent]
 *
 * Prints the baseline (max-frequency) run, the managed run, the
 * realized slowdown vs. the budget, the energy savings, and the
 * frequency-residency histogram — everything an operator would check
 * before enabling such a governor.
 */

#include <iostream>
#include <map>

#include "args.hh"
#include "dvfs.hh"

using namespace dvfs;

int
main(int argc, char **argv)
{
    const char *usage = "usage: example_energy_capped_service [benchmark] "
                        "[slowdown-percent]\n";
    examples::requireAtMost(argc, 2, usage);
    const std::string name = argc > 1 ? argv[1] : "lusearch";
    const double budget =
        examples::percentArg(argc, argv, 2, 10.0, usage) / 100.0;

    auto params = wl::benchmarkByName(name);
    auto table = power::VfTable::haswell();

    std::cout << "benchmark '" << name << "', slowdown budget "
              << budget * 100 << "%\n\n";

    auto baseline = exp::runFixed(params, table.highest());
    std::cout << "baseline @ " << table.highest().toString() << " : "
              << ticksToMs(baseline.totalTime) << " ms, "
              << baseline.energy.total() * 1000 << " mJ\n";

    mgr::ManagerConfig mc;
    mc.tolerableSlowdown = budget;
    auto managed = exp::runManaged(params, mc, table);

    double slowdown = static_cast<double>(managed.totalTime) /
                          static_cast<double>(baseline.totalTime) -
                      1.0;
    double savings = 1.0 - managed.energy.total() /
                               baseline.energy.total();

    std::cout << "managed                : "
              << ticksToMs(managed.totalTime) << " ms, "
              << managed.energy.total() * 1000 << " mJ\n\n"
              << "realized slowdown      : " << slowdown * 100 << "%"
              << (slowdown <= budget ? "  (within budget)"
                                     : "  (OVER budget)")
              << "\nenergy savings         : " << savings * 100 << "%\n"
              << "average frequency      : " << managed.averageGHz
              << " GHz over " << managed.transitions
              << " DVFS transitions\n\nfrequency residency:\n";

    // Residency histogram from the decision record.
    std::map<std::uint32_t, int> residency;
    for (const auto &d : managed.decisions)
        residency[d.chosen.toMHz()] += 1;
    for (const auto &[mhz, quanta] : residency) {
        std::cout << "  " << Frequency::mhz(mhz).toString() << " : ";
        int bars = quanta * 50 /
                   static_cast<int>(managed.decisions.size());
        for (int i = 0; i < bars; ++i)
            std::cout << '#';
        std::cout << " (" << quanta << " quanta)\n";
    }
    return 0;
}
