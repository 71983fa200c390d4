/**
 * @file
 * Figure 7 reproduction: dynamic energy manager vs the static-optimal
 * oracle.
 *
 * Static-optimal runs the application once at every operating point
 * (same input — an oracle, as the paper notes), then picks the fixed
 * frequency minimizing energy subject to the slowdown bound relative
 * to the highest frequency. The paper's finding: the dynamic manager
 * matches static-optimal on compute-intensive benchmarks and beats it
 * slightly (≈2.1% on average at the 10% threshold) on memory-intensive
 * ones, because it exploits phase behaviour (GC phases tolerate lower
 * frequency).
 *
 * The oracle's (benchmark x operating point) grid — the most expensive
 * sweep in the repository — and the per-benchmark managed runs both
 * execute on the sweep engine.
 *
 * Usage: fig7_static_optimal [--threshold=0.10] [--step-mhz=250]
 *                            [--only=<name>] [--mode=exact|sampled]
 *                            [--startup-us=60] [--detail-us=30]
 *                            [--gap-us=980] [--max-gap-us=0]
 *                            [--drift-permille=50]
 *                            [--workers=N]
 *
 * --mode=sampled runs the oracle grid and the managed cells
 * interval-sampled; savings are within-mode energy ratios, so the
 * comparison stays meaningful at ~an order of magnitude less cost.
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
    bench::FlagSet args("fig7_static_optimal",
                        "energy manager vs the static-optimal oracle "
                        "(Figure 7)");
    args.add("threshold", "X", "Tolerable-Slowdown (default 0.10)")
        .add("step-mhz", "N", "oracle operating-point step (default 250)")
        .add("only", "NAME", "run a single DaCapo benchmark")
        .addMode()
        .addSampling()
        .addWorkers();
    args.parse(argc, argv);
    const double threshold = args.getDouble("threshold", 0.10);
    const auto step =
        static_cast<std::uint32_t>(args.getInt("step-mhz", 250, 1, 3000));

    auto fine_vf = power::VfTable::haswell();          // manager: 125 MHz
    auto sweep_vf = power::VfTable::haswell(step);     // oracle sweep

    const unsigned workers = bench::sweepWorkers(args);
    const exp::SimMode mode = bench::modeFromArgs(args);
    const sim::SamplingConfig sampling = bench::samplingFromArgs(args);

    // Oracle grid: every benchmark at every sweep operating point
    // (the highest doubles as the baseline).
    exp::sweep::SweepSpec spec;
    spec.workloads = bench::dacapoWorkloads(args.get("only"));
    spec.frequencies = sweep_vf.frequencies();
    spec.runOptions.mode = mode;
    spec.runOptions.sampling = sampling;

    auto grid = exp::sweep::runSweep(spec, workers);

    // Dynamic manager, one run per benchmark.
    const auto &wls = grid.spec.workloads;
    auto dynamic = exp::sweep::sweepMap<exp::ManagedRunOutput>(
        wls.size(), workers, [&](std::size_t w) {
            mgr::ManagerConfig mc;
            mc.tolerableSlowdown = threshold;
            exp::RunOptions opts;
            opts.mode = mode;
            opts.sampling = sampling;
            return exp::runManaged(wls[w], mc, fine_vf, opts);
        });

    std::cout << "Figure 7: dynamic manager vs static-optimal oracle, "
              << "threshold " << exp::Table::pct(threshold, 0)
              << " (oracle sweep step " << step << " MHz)\n\n";

    exp::Table table({"benchmark", "type", "static-opt freq",
                      "static-opt saved", "dynamic saved", "delta"});

    double mem_delta_sum = 0.0;
    std::uint32_t mem_count = 0;

    for (std::size_t w = 0; w < wls.size(); ++w) {
        const auto &params = wls[w];
        const auto &baseline = grid.at(w, sweep_vf.highest());
        const double limit =
            static_cast<double>(baseline.totalTime) * (1.0 + threshold);

        // Oracle pick (skip the highest point: zero savings there).
        Frequency best_freq = sweep_vf.highest();
        double best_energy = baseline.energy.total();
        for (const auto &p : sweep_vf.points()) {
            if (p.freq == sweep_vf.highest())
                continue;
            const auto &out = grid.at(w, p.freq);
            if (static_cast<double>(out.totalTime) <= limit &&
                out.energy.total() < best_energy) {
                best_energy = out.energy.total();
                best_freq = p.freq;
            }
        }
        double static_saved = 1.0 - best_energy / baseline.energy.total();

        const auto &dyn = dynamic[w];
        double dyn_saved = 1.0 - dyn.energy.total() /
                                     baseline.energy.total();

        if (params.memoryIntensive) {
            mem_delta_sum += dyn_saved - static_saved;
            ++mem_count;
        }

        table.addRow({params.name, params.memoryIntensive ? "M" : "C",
                      best_freq.toString(), exp::Table::pct(static_saved),
                      exp::Table::pct(dyn_saved),
                      exp::Table::pct(dyn_saved - static_saved)});
    }
    table.print(std::cout);

    if (mem_count > 0) {
        std::cout << "\nmemory-intensive average (dynamic - static): "
                  << exp::Table::pct(mem_delta_sum / mem_count)
                  << "  (paper: +2.1% at the 10% threshold)\n";
    }
    return 0;
}
