/**
 * @file
 * Figure 6 reproduction: energy savings under the DEP+BURST-driven
 * energy manager for user-specified slowdown thresholds of 5% and 10%.
 *
 * For each benchmark: run once pinned at the highest frequency
 * (baseline time and energy), then run under the manager at each
 * threshold; report achieved slowdown and energy savings. Paper
 * reference: memory-intensive average savings of 13% (5% threshold)
 * and 19% (10% threshold), with achieved slowdowns near the targets.
 *
 * Both grids — the fixed baselines and the (benchmark x threshold)
 * managed runs — execute on the sweep engine; managed cells aggregate
 * by index, so the table is identical at any worker count.
 *
 * Usage: fig6_energy_manager [--only=<name>] [--quantum-us=50]
 *                            [--thresholds=0.05,0.10]
 *                            [--mode=exact|sampled]
 *                            [--startup-us=60] [--detail-us=30]
 *                            [--gap-us=980] [--max-gap-us=0]
 *                            [--drift-permille=50]
 *                            [--workers=N]
 *
 * --mode=sampled runs both the fixed baselines and the managed cells
 * interval-sampled (the managed side forks the fast-path model per
 * operating point and forces detail around DVFS transitions and GC
 * boundaries); slowdown/savings are then within-mode ratios, so the
 * sampled table tracks the exact one at a fraction of the cost
 * (bench/fig10_managed_sampling measures the error bound).
 */

#include <iostream>
#include <vector>

#include "bench_util.hh"
#include "exp/sweep/sweep.hh"
#include "exp/table.hh"

using namespace dvfs;

int
main(int argc, char **argv)
{
    bench::FlagSet args("fig6_energy_manager",
                        "energy savings under the DEP+BURST manager "
                        "(Figure 6)");
    args.add("only", "NAME", "run a single DaCapo benchmark")
        .add("quantum-us", "N", "manager quantum in us (default 50)")
        .add("thresholds", "CSV",
             "Tolerable-Slowdown values (default 0.05,0.10)")
        .addMode()
        .addSampling()
        .addWorkers();
    args.parse(argc, argv);
    const Tick quantum =
        static_cast<Tick>(
            args.getInt("quantum-us", 50, 1, bench::kMaxSimUs)) *
        kTicksPerUs;
    const std::vector<double> thresholds =
        args.getDoubleList("thresholds", {0.05, 0.10});

    auto table_vf = power::VfTable::haswell();
    const unsigned workers = bench::sweepWorkers(args);
    const exp::SimMode mode = bench::modeFromArgs(args);
    const sim::SamplingConfig sampling = bench::samplingFromArgs(args);

    // Fixed baselines: every benchmark at the highest operating point.
    exp::sweep::SweepSpec base_spec;
    base_spec.workloads = bench::dacapoWorkloads(args.get("only"));
    base_spec.frequencies = {table_vf.highest()};
    base_spec.runOptions.mode = mode;
    base_spec.runOptions.sampling = sampling;

    auto baselines = exp::sweep::runSweep(base_spec, workers);

    // Managed cells: (benchmark x threshold), threshold innermost,
    // matching the serial harness's loop nest.
    const auto &wls = baselines.spec.workloads;
    const std::size_t n_cells = wls.size() * thresholds.size();
    auto managed = exp::sweep::sweepMap<exp::ManagedRunOutput>(
        n_cells, workers, [&](std::size_t i) {
            mgr::ManagerConfig mc;
            mc.quantum = quantum;
            mc.holdOff = 1;
            mc.tolerableSlowdown = thresholds[i % thresholds.size()];
            exp::RunOptions opts;
            opts.mode = mode;
            opts.sampling = sampling;
            return exp::runManaged(wls[i / thresholds.size()], mc,
                                   table_vf, opts);
        });

    std::cout << "Figure 6: energy manager (DEP+BURST, quantum "
              << ticksToUs(quantum) << " us scaled = "
              << ticksToUs(quantum) / 10.0 / 100.0 * 1000.0
              << " ms at paper scale, hold-off 1)\n\n";

    std::vector<std::string> headers = {"benchmark", "type"};
    for (double th : thresholds) {
        headers.push_back(exp::Table::pct(th, 0) + " slowdown");
        headers.push_back(exp::Table::pct(th, 0) + " energy saved");
        headers.push_back(exp::Table::pct(th, 0) + " avg GHz");
    }
    exp::Table table(headers);

    std::vector<std::vector<double>> mem_sav(thresholds.size());
    std::vector<std::vector<double>> cpu_sav(thresholds.size());

    for (std::size_t w = 0; w < wls.size(); ++w) {
        const auto &params = wls[w];
        const auto &baseline = baselines.at(w, std::size_t{0});

        std::vector<std::string> row = {params.name,
                                        params.memoryIntensive ? "M" : "C"};
        for (std::size_t i = 0; i < thresholds.size(); ++i) {
            const auto &out = managed[w * thresholds.size() + i];

            double slowdown = static_cast<double>(out.totalTime) /
                                  static_cast<double>(baseline.totalTime) -
                              1.0;
            double saved = 1.0 - out.energy.total() /
                                     baseline.energy.total();
            (params.memoryIntensive ? mem_sav : cpu_sav)[i].push_back(
                saved);
            row.push_back(exp::Table::pct(slowdown));
            row.push_back(exp::Table::pct(saved));
            row.push_back(exp::Table::fmt(out.averageGHz, 2));
        }
        table.addRow(std::move(row));
    }

    table.print(std::cout);

    for (std::size_t i = 0; i < thresholds.size(); ++i) {
        double m = 0, c = 0;
        for (double v : mem_sav[i])
            m += v;
        for (double v : cpu_sav[i])
            c += v;
        if (!mem_sav[i].empty())
            m /= static_cast<double>(mem_sav[i].size());
        if (!cpu_sav[i].empty())
            c /= static_cast<double>(cpu_sav[i].size());
        std::cout << "\nthreshold " << exp::Table::pct(thresholds[i], 0)
                  << ": avg energy saved, memory-intensive "
                  << exp::Table::pct(m) << ", compute-intensive "
                  << exp::Table::pct(c);
    }
    std::cout << "\n\nPaper reference: memory-intensive 13% @ 5% and "
                 "19% @ 10% threshold; little for compute-intensive.\n";
    return 0;
}
