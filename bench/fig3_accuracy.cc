/**
 * @file
 * Figure 3 reproduction: per-benchmark DVFS prediction errors for
 * M+CRIT, COOP and DEP, each with and without BURST.
 *
 * (a) --dir=up   : base 1 GHz, targets 2/3/4 GHz
 * (b) --dir=down : base 4 GHz, targets 3/2/1 GHz
 * --dir=both (default) prints both.
 *
 * For every benchmark the harness obtains the ground truth at the base
 * and at each target frequency, feeds the base-run observations to
 * each predictor, and reports the signed relative error
 * estimated/actual-1 (negative = execution time underestimated), plus
 * the average absolute error across benchmarks — the paper's headline
 * metric (6% for DEP+BURST at 4 GHz from 1 GHz; 27% for M+CRIT).
 * Errors come from trace::ReplayEngine, the prediction path dvfsd
 * serves, under the registry's canonical predictor names.
 *
 * Both directions read one (benchmark x frequency) ObservedGrid, each
 * cell simulated once on the sweep engine and aggregated by cell
 * index, so the tables are identical at any worker count. This is the
 * one harness for that grid: --trace-dir=DIR replays a complete set of
 * .dvfstrace files from DIR, or simulates and records one, printing
 * the grid digest to stderr; --verify-live then re-simulates in memory
 * and exits 1 unless every error from the traces is bit-identical,
 * reporting live vs replay wall time (the replay speedup).
 *
 * Usage: fig3_accuracy [--dir=up|down|both] [--only=<benchmark>]
 *                      [--trace-dir=DIR [--verify-live]]
 *                      [--workers=N]
 */

#include <bit>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <vector>

#include "bench_util.hh"
#include "exp/sweep/fingerprint.hh"
#include "exp/sweep/trace_cache.hh"
#include "exp/table.hh"
#include "trace/replay.hh"

using namespace dvfs;

namespace {

struct Direction {
    const char *label;
    Frequency base;
    std::vector<Frequency> targets;
};

/**
 * Evaluate one direction over @p grid, appending every error to
 * @p errors (benchmark-major, then target, then predictor) and, when
 * @p out is set, printing the direction's table there.
 */
void
runDirection(const Direction &dir, const exp::sweep::ObservedGrid &grid,
             std::ostream *out, std::vector<double> &errors)
{
    const trace::ReplayEngine engine;  // the registry's Figure 3 zoo
    const auto &names = engine.predictorNames();
    const std::size_t nt = dir.targets.size();
    const std::size_t np = names.size();

    std::vector<std::string> headers = {"benchmark", "predictor"};
    for (auto t : dir.targets)
        headers.push_back("err @" + t.toString());
    exp::Table table(headers);

    const std::size_t first_error = errors.size();
    for (std::size_t w = 0; w < grid.spec.workloads.size(); ++w) {
        std::vector<trace::ReplayTarget> targets;
        for (auto t : dir.targets)
            targets.push_back({t, grid.at(w, t).totalTime});
        const std::size_t first = errors.size();
        for (const auto &cell :
             engine.evaluate(grid.at(w, dir.base).view(), targets))
            errors.push_back(cell.error);

        for (std::size_t p = 0; p < np; ++p) {
            std::vector<std::string> row = {
                p == 0 ? grid.spec.workloads[w].name : "", names[p]};
            for (std::size_t t = 0; t < nt; ++t)
                row.push_back(exp::Table::pct(errors[first + t * np + p]));
            table.addRow(std::move(row));
        }
        table.addSeparator();
    }

    for (std::size_t p = 0; p < np; ++p) {
        std::vector<std::string> row = {"avg |err|", names[p]};
        for (std::size_t t = 0; t < nt; ++t) {
            std::vector<double> column;
            for (std::size_t i = first_error + t * np + p;
                 i < errors.size(); i += nt * np)
                column.push_back(errors[i]);
            row.push_back(exp::Table::pct(exp::meanAbs(column)));
        }
        table.addRow(std::move(row));
    }

    if (out) {
        *out << "\nFigure 3 (" << dir.label << "): base "
             << dir.base.toString() << "\n\n";
        table.print(*out);
    }
}

double
msSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

int
main(int argc, char **argv)
{
    bench::FlagSet args("fig3_accuracy",
                        "per-benchmark DVFS prediction errors "
                        "(Figure 3)");
    args.add("dir", "up|down|both",
             "prediction direction(s) to print (default both)")
        .add("only", "NAME", "run a single DaCapo benchmark")
        .addTraceDir("replay recorded .dvfstrace files from DIR "
                     "(recording them first if absent)")
        .addBool("verify-live",
                 "with --trace-dir: re-simulate and exit 1 unless every "
                 "replayed error is bit-identical")
        .addWorkers();
    args.parse(argc, argv);

    const std::string dir =
        args.getChoice("dir", "both", {"up", "down", "both"});
    const std::string trace_dir = args.get("trace-dir");
    const bool verify = args.has("verify-live");
    if (verify && trace_dir.empty())
        fatal("--verify-live needs --trace-dir=DIR to replay from");

    std::vector<Direction> dirs;
    if (dir != "down")
        dirs.push_back({"a: low-to-high", Frequency::ghz(1.0),
                        {Frequency::ghz(2.0), Frequency::ghz(3.0),
                         Frequency::ghz(4.0)}});
    if (dir != "up")
        dirs.push_back({"b: high-to-low", Frequency::ghz(4.0),
                        {Frequency::ghz(3.0), Frequency::ghz(2.0),
                         Frequency::ghz(1.0)}});

    // Both directions read the same four operating points, so one
    // grid covers them.
    const exp::sweep::SweepSpec spec =
        bench::fig3GridSpec(0, args.get("only"));
    const unsigned workers = bench::sweepWorkers(args);

    auto t0 = std::chrono::steady_clock::now();
    exp::sweep::ObservedGrid grid;
    try {
        grid = exp::sweep::observeGrid(spec, workers, trace_dir);
        if (grid.replayed) {
            std::cout << "replaying traces from " << trace_dir << "\n";
        } else if (!trace_dir.empty()) {
            std::cout << "recorded traces to " << trace_dir << "\n";
            const double ms = msSince(t0);
            const std::size_t cells = spec.cellCount();
            std::cerr << "fig3_accuracy: recorded " << cells
                      << " cells in " << exp::Table::fmt(ms, 1) << " ms ("
                      << exp::Table::fmt(cells / (ms / 1000.0), 2)
                      << " cells/s), digest 0x" << std::hex
                      << exp::sweep::gridDigest(grid.live->cells)
                      << std::dec << "\n";
            // Verify what the directory holds, not the in-memory grid
            // that was just written to it.
            if (verify) {
                t0 = std::chrono::steady_clock::now();
                grid = exp::sweep::loadGrid(spec, trace_dir);
            }
        }
    } catch (const trace::TraceError &e) {
        fatal("--trace-dir=%s: %s", trace_dir.c_str(), e.what());
    }

    std::vector<double> errors;
    for (const Direction &d : dirs)
        runDirection(d, grid, &std::cout, errors);
    if (!verify)
        return 0;
    const double replay_ms = msSince(t0);

    const auto v0 = std::chrono::steady_clock::now();
    const auto live_grid = exp::sweep::recordGrid(spec, workers);
    std::vector<double> live;
    for (const Direction &d : dirs)
        runDirection(d, live_grid, nullptr, live);
    const double live_ms = msSince(v0);

    std::size_t diverged = 0;
    for (std::size_t i = 0; i < errors.size(); ++i) {
        diverged += std::bit_cast<std::uint64_t>(errors[i]) !=
                    std::bit_cast<std::uint64_t>(live[i]);
    }
    if (diverged != 0) {
        std::cerr << "fig3_accuracy: DIVERGENCE — " << diverged
                  << " replayed predictor errors differ from the live "
                     "path\n";
        return 1;
    }
    std::cout << "verify-live: all replayed predictor errors "
                 "bit-identical to the live path ("
              << exp::Table::fmt(live_ms, 1) << " ms live vs "
              << exp::Table::fmt(replay_ms, 1) << " ms replay, "
              << exp::Table::fmt(live_ms / replay_ms, 1) << "x)\n";
    return 0;
}
