/**
 * @file
 * Replay recorded traces through the full predictor zoo — offline.
 *
 * Loads the fig3-style grid from a trace directory produced by
 * trace_record and evaluates every registry predictor across the full
 * frequency grid in both directions, printing the same error tables
 * fig3_accuracy prints — with zero simulation. Predictor names in all
 * output are the PredictorRegistry's canonical spellings.
 *
 * --verify-live re-simulates the grid and fails (exit 1) unless every
 * replayed predictor error is bit-identical to the live path — the CI
 * trace-roundtrip gate. The measured record (live) vs replay speedup
 * goes into the JSONL record.
 *
 * Appends one dvfs-trace-bench-v1 record (phase=replay) per run to
 * the JSONL trajectory (see EXPERIMENTS.md).
 *
 * Usage: trace_replay --traces=DIR [--benchmarks=N] [--only=<name>]
 *                     [--seed=42] [--dir=up|down|both] [--verify-live]
 *                     [--workers=N] [--json=BENCH_sweep.json]
 */

#include <chrono>
#include <cstring>
#include <iostream>
#include <map>
#include <vector>

#include "bench_json.hh"
#include "bench_util.hh"
#include "exp/sweep/trace_cache.hh"
#include "exp/table.hh"
#include "pred/registry.hh"
#include "trace/replay.hh"

using namespace dvfs;

namespace {

struct Direction {
    const char *label;
    Frequency base;
    std::vector<Frequency> targets;
};

/** errors[predictor][targetMHz] -> per-benchmark error list. */
using ErrorGrid =
    std::map<std::string, std::map<std::uint32_t, std::vector<double>>>;

/**
 * Evaluate one direction over an observed grid and print the fig3
 * table. Returns every error keyed by (predictor, target).
 */
ErrorGrid
runDirection(const Direction &dir, const exp::sweep::ObservedGrid &grid,
             std::ostream *out)
{
    ErrorGrid errors;

    std::vector<std::string> headers = {"benchmark", "predictor"};
    for (auto t : dir.targets)
        headers.push_back("err @" + t.toString());
    exp::Table table(headers);

    trace::ReplayEngine engine;  // the registry's Figure 3 zoo

    for (std::size_t w = 0; w < grid.spec.workloads.size(); ++w) {
        const auto &base_cell = grid.at(w, dir.base);

        std::vector<trace::ReplayTarget> targets;
        for (auto t : dir.targets)
            targets.push_back({t, grid.at(w, t).totalTime});

        auto cells = engine.evaluate(base_cell.view(), targets);

        // Rows are predictor-major like fig3; cells are target-major.
        const auto &names = engine.predictorNames();
        bool first = true;
        for (std::size_t p = 0; p < names.size(); ++p) {
            std::vector<std::string> row = {
                first ? grid.spec.workloads[w].name : "", names[p]};
            first = false;
            for (std::size_t t = 0; t < targets.size(); ++t) {
                const auto &cell = cells[t * names.size() + p];
                errors[cell.predictor][cell.target.toMHz()].push_back(
                    cell.error);
                row.push_back(exp::Table::pct(cell.error));
            }
            table.addRow(std::move(row));
        }
        table.addSeparator();
    }

    for (const auto &name : engine.predictorNames()) {
        std::vector<std::string> row = {"avg |err|", name};
        for (auto t : dir.targets)
            row.push_back(
                exp::Table::pct(exp::meanAbs(errors[name][t.toMHz()])));
        table.addRow(std::move(row));
    }

    if (out) {
        *out << "\nFigure 3 (" << dir.label << "): base "
             << dir.base.toString() << "\n\n";
        table.print(*out);
    }
    return errors;
}

/** Bitwise double equality (matches the golden-trace tests). */
bool
sameBits(double a, double b)
{
    std::uint64_t ua, ub;
    std::memcpy(&ua, &a, sizeof(ua));
    std::memcpy(&ub, &b, sizeof(ub));
    return ua == ub;
}

/** Count (predictor, target, benchmark) cells that diverge. */
std::size_t
diffErrors(const ErrorGrid &a, const ErrorGrid &b)
{
    std::size_t diverged = 0;
    if (a.size() != b.size())
        return 1;
    for (const auto &[name, by_target] : a) {
        auto it = b.find(name);
        if (it == b.end())
            return 1;
        for (const auto &[mhz, errs] : by_target) {
            auto jt = it->second.find(mhz);
            if (jt == it->second.end() ||
                jt->second.size() != errs.size())
                return 1;
            for (std::size_t i = 0; i < errs.size(); ++i) {
                if (!sameBits(errs[i], jt->second[i]))
                    ++diverged;
            }
        }
    }
    return diverged;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Args args(argc, argv);
    const std::string traces = args.get("traces");
    if (traces.empty()) {
        std::cerr << "trace_replay: --traces=DIR is required\n";
        return 1;
    }
    const std::string dir = args.get("dir", "both");

    exp::sweep::SweepSpec spec = bench::fig3GridSpec(
        static_cast<std::size_t>(args.getInt("benchmarks", 0)),
        args.get("only"));
    if (spec.workloads.empty()) {
        std::cerr << "no benchmark matches --only=" << args.get("only")
                  << "\n";
        return 1;
    }
    spec.seeds = {static_cast<std::uint64_t>(args.getInt("seed", 42))};

    Direction up{"a: low-to-high", Frequency::ghz(1.0),
                 {Frequency::ghz(2.0), Frequency::ghz(3.0),
                  Frequency::ghz(4.0)}};
    Direction down{"b: high-to-low", Frequency::ghz(4.0),
                   {Frequency::ghz(3.0), Frequency::ghz(2.0),
                    Frequency::ghz(1.0)}};
    std::vector<const Direction *> dirs;
    if (dir == "up" || dir == "both")
        dirs.push_back(&up);
    if (dir == "down" || dir == "both")
        dirs.push_back(&down);

    const std::size_t cells = spec.cellCount();

    const auto t0 = std::chrono::steady_clock::now();
    exp::sweep::ObservedGrid grid;
    try {
        grid = exp::sweep::loadGrid(spec, traces);
    } catch (const trace::TraceError &e) {
        std::cerr << "trace_replay: cannot replay (" << e.what()
                  << "); run trace_record first\n";
        return 1;
    }
    std::vector<ErrorGrid> replayed;
    for (const Direction *d : dirs)
        replayed.push_back(runDirection(*d, grid, &std::cout));
    const auto t1 = std::chrono::steady_clock::now();
    const double replay_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();

    const double replay_cells_s =
        static_cast<double>(cells) / (replay_ms / 1000.0);
    std::cout << "\nreplayed " << cells << " cells ("
              << dirs.size() * trace::ReplayEngine().predictorNames()
                                   .size()
              << " predictor columns) in "
              << exp::Table::fmt(replay_ms, 1) << " ms ("
              << exp::Table::fmt(replay_cells_s, 2) << " cells/s)\n";

    bench::SweepJsonRecord rec(
        "trace_replay",
        "benchmarks=" + std::to_string(spec.workloads.size()),
        "dvfs-trace-bench-v1");
    rec.add("phase", "replay")
        .add("cells", static_cast<std::uint64_t>(cells))
        .add("wall_ms", replay_ms)
        .add("cells_per_sec", replay_cells_s);

    int status = 0;
    if (args.has("verify-live")) {
        exp::sweep::SweepRunner::Options opts;
        opts.workers = bench::sweepWorkers(args);
        opts.progress = args.has("progress");
        opts.label = "trace_replay verify";

        const auto v0 = std::chrono::steady_clock::now();
        auto live = exp::sweep::recordGrid(spec, opts);
        std::vector<ErrorGrid> live_errors;
        for (const Direction *d : dirs)
            live_errors.push_back(runDirection(*d, live, nullptr));
        const auto v1 = std::chrono::steady_clock::now();
        const double live_ms =
            std::chrono::duration<double, std::milli>(v1 - v0).count();

        std::size_t diverged = 0;
        for (std::size_t i = 0; i < dirs.size(); ++i)
            diverged += diffErrors(live_errors[i], replayed[i]);

        rec.add("live_ms", live_ms)
            .add("replay_speedup_vs_live", live_ms / replay_ms)
            .add("diverged_cells",
                 static_cast<std::uint64_t>(diverged));

        if (diverged != 0) {
            std::cerr << "trace_replay: DIVERGENCE — " << diverged
                      << " replayed predictor errors differ from the "
                         "live path\n";
            status = 1;
        } else {
            std::cout << "verify-live: all replayed predictor errors "
                         "bit-identical to the live path ("
                      << exp::Table::fmt(live_ms, 1)
                      << " ms live vs "
                      << exp::Table::fmt(replay_ms, 1)
                      << " ms replay, "
                      << exp::Table::fmt(live_ms / replay_ms, 1)
                      << "x)\n";
        }
    }

    rec.appendTo(args.get("json", "BENCH_sweep.json"));
    return status;
}
