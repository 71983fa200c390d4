/**
 * @file
 * Sampled-simulation accuracy: speedup vs measured error bounds.
 *
 * This is the repo's "Figure 9" extension to the paper's evaluation:
 * the interval-sampled fast path (DESIGN.md section 11) is only
 * admissible if its error against the cycle-accurate oracle is
 * measured, not assumed. For each requested gap length the fig3
 * ground-truth grid runs in both modes through
 * exp::sweep::compareModes, and the bench reports
 *
 *  - the grid wall-clock speedup of sampled over exact,
 *  - per-cell total-time error and (the headline) slowdown-prediction
 *    error — how far sampled T(f)/T(f0) ratios land from exact ones,
 *  - per-predictor slowdown error envelopes, sampled-fed vs exact-fed,
 *    so the error *sampling adds* is separated from the predictors'
 *    inherent model error.
 *
 * A provenance table adds each configuration's walls, sampled action
 * counts and sampled digest. Error metrics are deterministic —
 * repeats reproduce them bit-for-bit; only wall times move — so CI
 * can gate hard on them.
 *
 * Usage: fig9_sampling_accuracy [--benchmarks=4] [--seeds=1]
 *          [--gaps=980] [--detail-us=30] [--startup-us=60]
 *          [--workers=N] [--repeat=1]
 *          [--fail-err-pct=X] [--fail-speedup=X]
 *          [--expect-sampled-fingerprint=0x...]
 *
 * --gaps is a comma-separated list of fast-forward gap lengths in
 * microseconds; each is measured with the same detail/startup windows
 * (a window/gap-ratio sweep). It is the only gap flag: --gap-us, which
 * the other sampled harnesses take, is unknown here. --repeat measures
 * each configuration N times, reports minimum walls, and fails if any
 * repeat's digest (in either mode) deviates. --fail-err-pct / --fail-speedup gate every
 * measured configuration on mean |slowdown error| / grid speedup;
 * --expect-sampled-fingerprint pins the first configuration's sampled
 * digest (CI runs a single gap, so "first" is "the default").
 */

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "exp/table.hh"
#include "mode_comparison.hh"

using namespace dvfs;

int
main(int argc, char **argv)
{
    bench::FlagSet args("fig9_sampling_accuracy",
                        "sampled-vs-exact error bounds and speedup");
    args.add("benchmarks", "N",
             "workloads from the DaCapo suite (default 4)")
        .add("seeds", "N", "replicate seeds per workload (default 1)")
        .add("gaps", "CSV",
             "fast-forward gap lengths in us (default 980)")
        .addWorkers()
        .addSamplingWindows()
        .addRepeat()
        .add("fail-err-pct", "X",
             "fail if mean |slowdown err| exceeds X percent")
        .add("fail-speedup", "X",
             "fail if grid speedup falls below X")
        .add("expect-sampled-fingerprint", "0x...",
             "pin the first configuration's sampled digest");
    args.parse(argc, argv);

    const auto n_bench =
        static_cast<std::size_t>(args.getInt("benchmarks", 4, 1));
    const auto n_seeds =
        static_cast<std::size_t>(args.getInt("seeds", 1, 1));
    const unsigned workers = bench::sweepWorkers(args);
    const unsigned repeat = bench::repeatFromArgs(args);

    const sim::SamplingConfig base = bench::samplingWindowsFromArgs(args);
    const std::vector<long> gaps_us =
        args.getIntList("gaps", {980}, 0, bench::kMaxSimUs);
    const bench::Gates gates =
        bench::gatesFromArgs(args, "expect-sampled-fingerprint");

    exp::sweep::SweepSpec spec = bench::fig3GridSpec(n_bench);
    spec.seeds = exp::sweep::SweepSpec::replicateSeeds(42, n_seeds);

    std::cout << "fig9_sampling_accuracy: " << spec.workloads.size()
              << " benchmarks x " << spec.frequencies.size()
              << " frequencies x " << spec.seeds.size() << " seeds, "
              << "detail=" << base.detailWindow / kTicksPerUs
              << "us startup=" << base.startupDetail / kTicksPerUs
              << "us, workers=" << workers << ", repeat=" << repeat
              << "\n\n";

    exp::Table table({"gap us", "cov %", "speedup", "time err %",
                      "slowdown err %", "pred err %", "exact-fed %"});
    std::vector<exp::sweep::ModeComparison> results;
    std::vector<std::string> labels;
    bool repeats_ok = true;

    for (long gap_us : gaps_us) {
        sim::SamplingConfig cfg = base;
        cfg.gapWindow = static_cast<Tick>(gap_us) * kTicksPerUs;
        const std::string gap = "gap=" + std::to_string(gap_us) + "us";

        exp::sweep::ModeComparison best = bench::bestOfRepeats(
            "fig9_sampling_accuracy", " at " + gap, repeat,
            [&] { return exp::sweep::compareModes(spec, cfg, workers); },
            repeats_ok);

        double exact_fed = 0.0;
        for (const auto &p : best.predictors)
            exact_fed += p.meanAbsPctExactFed;
        if (!best.predictors.empty())
            exact_fed /= static_cast<double>(best.predictors.size());
        table.addRow(
            {std::to_string(gap_us),
             exp::Table::fmt(best.sampleTotals.coverage() * 100.0, 1),
             exp::Table::fmt(best.speedup(), 1),
             exp::Table::fmt(best.meanAbsTimeErrPct, 2) + " / " +
                 exp::Table::fmt(best.maxAbsTimeErrPct, 2),
             exp::Table::fmt(best.meanAbsSlowdownErrPct, 2) + " / " +
                 exp::Table::fmt(best.maxAbsSlowdownErrPct, 2),
             exp::Table::fmt(best.meanPredictorErrPct(), 2) + " / " +
                 exp::Table::fmt(best.maxPredictorErrPct(), 2),
             exp::Table::fmt(exact_fed, 2)});

        results.push_back(std::move(best));
        labels.push_back(gap);
    }

    table.print(std::cout);
    bench::printProvenance(results, labels);

    // Per-predictor envelopes, one table per configuration: the
    // sampled-fed column is the end-to-end error bound, the exact-fed
    // column the predictor's inherent error on this grid.
    for (std::size_t i = 0; i < results.size(); ++i) {
        std::cout << "\npredictor slowdown-error envelopes (gap="
                  << gaps_us[i] << "us):\n";
        exp::Table ptab({"predictor", "sampled mean %", "sampled max %",
                         "exact-fed mean %", "exact-fed max %",
                         "samples"});
        for (const auto &p : results[i].predictors)
            ptab.addRow({p.predictor, exp::Table::fmt(p.meanAbsPct, 2),
                         exp::Table::fmt(p.maxAbsPct, 2),
                         exp::Table::fmt(p.meanAbsPctExactFed, 2),
                         exp::Table::fmt(p.maxAbsPctExactFed, 2),
                         std::to_string(p.samples)});
        ptab.print(std::cout);
    }

    std::cout << "\n";
    bench::printFingerprints(results.front());
    return bench::checkGates("fig9_sampling_accuracy", gates, results,
                             labels, repeats_ok, "sampled");
}
