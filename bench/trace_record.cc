/**
 * @file
 * Record the fig3-style ground-truth grid to .dvfstrace files.
 *
 * Simulates every (benchmark x operating point) cell of the Figure 3
 * grid once on the sweep engine and persists each cell's observation
 * record (epochs, per-thread counter deltas, thread summaries, GC
 * marks) to --out. A directory produced here feeds trace_replay,
 * fig3_accuracy --trace-dir and ablation_estimators --trace-dir: the
 * expensive simulation happens once, every later predictor evaluation
 * replays from disk. The printed grid digest ties the traces to the
 * simulation that produced them.
 *
 * Usage: trace_record --out=DIR [--benchmarks=N] [--only=<name>]
 *                     [--seed=42] [--workers=N] [--progress]
 */

#include <chrono>
#include <iostream>

#include "bench_util.hh"
#include "exp/sweep/fingerprint.hh"
#include "exp/sweep/trace_cache.hh"
#include "exp/table.hh"

using namespace dvfs;

int
main(int argc, char **argv)
{
    bench::FlagSet args("trace_record",
                        "record the fig3 ground-truth grid to "
                        ".dvfstrace files");
    args.add("out", "DIR", "trace directory to write (required)")
        .add("benchmarks", "N",
             "first N DaCapo benchmarks (default 0 = all)")
        .add("only", "NAME", "record a single DaCapo benchmark")
        .add("seed", "N", "machine seed (default 42)")
        .addWorkers()
        .addBool("progress", "progress/ETA lines on stderr");
    args.parse(argc, argv);
    const std::string out = args.get("out");
    if (out.empty()) {
        std::cerr << "trace_record: --out=DIR is required\n";
        return 1;
    }

    exp::sweep::SweepSpec spec = bench::fig3GridSpec(
        static_cast<std::size_t>(args.getInt("benchmarks", 0, 0)),
        args.get("only"));
    if (spec.workloads.empty()) {
        std::cerr << "no benchmark matches --only=" << args.get("only")
                  << "\n";
        return 1;
    }
    spec.seeds = {static_cast<std::uint64_t>(args.getInt("seed", 42))};

    exp::sweep::SweepRunner::Options opts;
    opts.workers = bench::sweepWorkers(args);
    opts.progress = args.has("progress");
    opts.label = "trace_record";

    const std::size_t cells = spec.cellCount();
    std::cout << "trace_record: " << spec.workloads.size()
              << " benchmarks x " << spec.frequencies.size()
              << " frequencies = " << cells << " cells -> " << out
              << "\n";

    const auto t0 = std::chrono::steady_clock::now();
    auto grid = exp::sweep::recordGrid(spec, opts, out);
    const auto t1 = std::chrono::steady_clock::now();
    const double wall_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();

    const double cells_s =
        static_cast<double>(cells) / (wall_ms / 1000.0);
    std::cout << "recorded " << cells << " cells in "
              << exp::Table::fmt(wall_ms, 1) << " ms ("
              << exp::Table::fmt(cells_s, 2) << " cells/s), digest 0x"
              << std::hex << exp::sweep::gridDigest(grid.live->cells)
              << std::dec << "\n";
    return 0;
}
