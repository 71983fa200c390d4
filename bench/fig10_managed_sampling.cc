/**
 * @file
 * Managed-sampled accuracy: speedup vs error under the energy manager.
 *
 * This is the repo's "Figure 10" extension: fig9 bounds the sampled
 * fast path's error on fixed-frequency grids; this bench bounds it on
 * *managed* runs, where the energy manager changes frequency mid-run
 * and the fast-path model forks per operating point (DESIGN.md section
 * 11.7). Each (benchmark x seed) cell runs under the manager in both
 * modes through exp::sweep::compareManagedModes, plus fixed-at-highest
 * baselines per mode, and the bench reports
 *
 *  - the managed-grid wall-clock speedup of sampled over exact,
 *  - per-cell managed total-time error and (the headline) achieved-
 *    slowdown error — how far the sampled S = T_managed/T_fixedHighest
 *    lands from the exact one, computed within-mode so systematic time
 *    bias cancels (the quantity fig6 reports),
 *  - sampling provenance: DVFS transitions observed, forced detail
 *    windows, and the adaptive gap-stretch histogram.
 *
 * A provenance table adds both walls, sampled action counts and the
 * sampled digest. Error metrics are deterministic — repeats reproduce
 * them bit-for-bit; only wall times move — so CI gates hard on them.
 *
 * Usage: fig10_managed_sampling [--benchmarks=4] [--seeds=1]
 *          [--startup-us=60] [--detail-us=30] [--gap-us=980]
 *          [--max-gap-us=0] [--drift-permille=50]
 *          [--workers=N] [--repeat=1]
 *          [--fail-err-pct=X] [--fail-speedup=X]
 *          [--expect-managed-fingerprint=0x...]
 *
 * --fail-err-pct / --fail-speedup gate on mean |achieved-slowdown
 * error| / managed-grid speedup; --expect-managed-fingerprint pins the
 * sampled managed grid digest. --repeat measures N times, reports
 * minimum walls, and fails if any repeat's digest (either mode)
 * deviates.
 */

#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "exp/table.hh"
#include "mode_comparison.hh"

using namespace dvfs;

namespace {

/** Gap-stretch histogram as a bracketed list, "[n1,n2,...]". */
std::string
gapStretchList(const sim::SampleStats &s)
{
    std::ostringstream os;
    os << "[";
    for (int i = 0; i < sim::SampleStats::kGapStretchBuckets; ++i)
        os << (i ? "," : "") << s.gapStretch[i];
    os << "]";
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    bench::FlagSet args("fig10_managed_sampling",
                        "managed sampled-vs-exact error bounds and "
                        "speedup");
    args.add("benchmarks", "N",
             "workloads from the DaCapo suite (default 4)")
        .add("seeds", "N", "replicate seeds per workload (default 1)")
        .addWorkers()
        .addSampling()
        .addRepeat()
        .add("fail-err-pct", "X",
             "fail if mean |achieved-slowdown err| exceeds X percent")
        .add("fail-speedup", "X",
             "fail if managed-grid speedup falls below X")
        .add("expect-managed-fingerprint", "0x...",
             "pin the sampled managed digest");
    args.parse(argc, argv);

    const auto n_bench =
        static_cast<std::size_t>(args.getInt("benchmarks", 4, 1));
    const auto n_seeds =
        static_cast<std::size_t>(args.getInt("seeds", 1, 1));
    const unsigned workers = bench::sweepWorkers(args);
    const unsigned repeat = bench::repeatFromArgs(args);

    const sim::SamplingConfig cfg = bench::samplingFromArgs(args);
    const bench::Gates gates =
        bench::gatesFromArgs(args, "expect-managed-fingerprint");

    const auto workloads = bench::dacapoWorkloads("", n_bench);
    const auto seeds = exp::sweep::SweepSpec::replicateSeeds(42, n_seeds);
    const auto table_vf = power::VfTable::haswell();
    const mgr::ManagerConfig mc;

    std::cout << "fig10_managed_sampling: " << workloads.size()
              << " benchmarks x " << seeds.size() << " seeds under the "
              << "energy manager, detail="
              << cfg.detailWindow / kTicksPerUs
              << "us gap=" << cfg.gapWindow / kTicksPerUs
              << "us max-gap=" << cfg.maxGapWindow / kTicksPerUs
              << "us, workers=" << workers << ", repeat=" << repeat
              << "\n\n";

    bool repeats_ok = true;
    const exp::sweep::ModeComparison best = bench::bestOfRepeats(
        "fig10_managed_sampling", "", repeat,
        [&] {
            return exp::sweep::compareManagedModes(workloads, mc, table_vf,
                                                   cfg, seeds, workers);
        },
        repeats_ok);

    exp::Table table({"cells", "cov %", "speedup", "time err %",
                      "slowdown err %", "transitions", "forced"});
    table.addRow(
        {std::to_string(best.cells),
         exp::Table::fmt(best.sampleTotals.coverage() * 100.0, 1),
         exp::Table::fmt(best.speedup(), 1),
         exp::Table::fmt(best.meanAbsTimeErrPct, 2) + " / " +
             exp::Table::fmt(best.maxAbsTimeErrPct, 2),
         exp::Table::fmt(best.meanAbsSlowdownErrPct, 2) + " / " +
             exp::Table::fmt(best.maxAbsSlowdownErrPct, 2),
         std::to_string(best.transitions),
         std::to_string(best.sampleTotals.forcedWindows)});
    table.print(std::cout);

    const std::string label =
        "gap=" + std::to_string(cfg.gapWindow / kTicksPerUs) +
        "us max-gap=" + std::to_string(cfg.maxGapWindow / kTicksPerUs) +
        "us";
    bench::printProvenance({best}, {label});

    std::cout << "\ngap-stretch histogram (gaps entered at 1x,2x,...):"
              << " " << gapStretchList(best.sampleTotals) << "\n";
    bench::printFingerprints(best);

    return bench::checkGates("fig10_managed_sampling", gates, {best},
                             {label}, repeats_ok, "sampled managed");
}
