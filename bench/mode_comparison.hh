/**
 * @file
 * The body fig9_sampling_accuracy and fig10_managed_sampling share.
 *
 * Both figures repeat one exp::sweep::ModeComparison per
 * configuration, keep the minimum walls, fail on digest drift across
 * repeats, append a dvfs-sweep-bench-v1 row, print the grid digests,
 * and gate on mean slowdown error, speedup and a pinned sampled
 * fingerprint. Only the grid (fixed or managed) and a few row fields
 * differ.
 */

#ifndef DVFS_BENCH_MODE_COMPARISON_HH
#define DVFS_BENCH_MODE_COMPARISON_HH

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.hh"
#include "bench_util.hh"
#include "exp/sweep/differential.hh"

namespace dvfs::bench {

/**
 * Run @p compare @p repeat times and keep the first result with the
 * minimum walls. A repeat whose digest (either mode) differs from the
 * first is reported on stderr and clears @p repeats_ok.
 */
template <typename Compare>
exp::sweep::ModeComparison
bestOfRepeats(const std::string &prog, const std::string &where,
              unsigned repeat, Compare &&compare, bool &repeats_ok)
{
    exp::sweep::ModeComparison best = compare();
    for (unsigned r = 1; r < repeat; ++r) {
        exp::sweep::ModeComparison cmp = compare();
        if (cmp.exactDigest != best.exactDigest ||
            cmp.sampledDigest != best.sampledDigest) {
            std::cerr << prog << ": digest drift across repeats" << where
                      << "\n";
            repeats_ok = false;
        }
        best.exactWallSec = std::min(best.exactWallSec, cmp.exactWallSec);
        best.sampledWallSec =
            std::min(best.sampledWallSec, cmp.sampledWallSec);
    }
    return best;
}

/**
 * Append the row fields every comparison reports, in the order both
 * figures have always written them. @p managed adds the managed grid's
 * fields (window-stretch settings, transitions, forced windows) in
 * place of the fixed grid's predictor means.
 */
inline void
addComparisonFields(SweepJsonRecord &rec,
                    const exp::sweep::ModeComparison &c,
                    unsigned workers, unsigned repeat, bool managed)
{
    const sim::SamplingConfig &cfg = c.sampling;
    rec.add("mode", "sampled");
    if (managed)
        rec.add("grid", "managed");
    rec.add("workers", static_cast<std::uint64_t>(workers))
        .add("cells", static_cast<std::uint64_t>(c.cells))
        .add("repeat", static_cast<std::uint64_t>(repeat))
        .add("startup_us",
             static_cast<std::uint64_t>(cfg.startupDetail / kTicksPerUs))
        .add("detail_us",
             static_cast<std::uint64_t>(cfg.detailWindow / kTicksPerUs))
        .add("gap_us",
             static_cast<std::uint64_t>(cfg.gapWindow / kTicksPerUs));
    if (managed) {
        rec.add("max_gap_us",
                static_cast<std::uint64_t>(cfg.maxGapWindow /
                                           kTicksPerUs))
            .add("drift_permille",
                 static_cast<std::uint64_t>(cfg.driftThresholdPermille));
    }
    rec.add("detail_coverage_pct", c.sampleTotals.coverage() * 100.0)
        .add("exact_wall_ms", c.exactWallSec * 1000.0)
        .add("sampled_wall_ms", c.sampledWallSec * 1000.0)
        .add("cells_per_sec",
             c.sampledWallSec > 0.0
                 ? static_cast<double>(c.cells) / c.sampledWallSec
                 : 0.0)
        .add("speedup_vs_exact", c.speedup())
        .add("mean_abs_time_err_pct", c.meanAbsTimeErrPct)
        .add("max_abs_time_err_pct", c.maxAbsTimeErrPct)
        .add("mean_abs_slowdown_err_pct", c.meanAbsSlowdownErrPct)
        .add("max_abs_slowdown_err_pct", c.maxAbsSlowdownErrPct)
        .add("slowdown_samples",
             static_cast<std::uint64_t>(c.slowdownSamples));
    if (managed) {
        rec.add("transitions", c.transitions)
            .add("forced_detail_windows", c.sampleTotals.forcedWindows);
    } else {
        rec.add("mean_predictor_err_pct", c.meanPredictorErrPct())
            .add("max_predictor_err_pct", c.maxPredictorErrPct());
    }
    rec.add("ff_actions", c.sampleTotals.ffActions)
        .add("detail_actions", c.sampleTotals.detailActions)
        .add("ff_fallbacks", c.sampleTotals.ffFallbacks)
        .addHex("exact_fingerprint", c.exactDigest)
        .addHex("sampled_fingerprint", c.sampledDigest);
}

/** Print "fingerprints: exact=0x... sampled=0x..." on its own line. */
inline void
printFingerprints(const exp::sweep::ModeComparison &c)
{
    char fps[80];
    std::snprintf(fps, sizeof(fps),
                  "fingerprints: exact=0x%016llx sampled=0x%016llx\n",
                  static_cast<unsigned long long>(c.exactDigest),
                  static_cast<unsigned long long>(c.sampledDigest));
    std::cout << fps;
}

/**
 * The hard gates: --fail-err-pct bounds every configuration's mean
 * |slowdown error|, --fail-speedup its speedup, and --@p fp_flag pins
 * the first configuration's sampled digest (@p fp_noun names it in
 * the output). @p labels name the configurations in failure messages.
 * Prints "all gates passed" and returns 0, or returns 1.
 */
inline int
checkGates(const std::string &prog, const FlagSet &args,
           const std::vector<exp::sweep::ModeComparison> &results,
           const std::vector<std::string> &labels, bool repeats_ok,
           const std::string &fp_flag, const std::string &fp_noun)
{
    const double fail_err = args.getDouble("fail-err-pct", 0.0);
    const double fail_speedup = args.getDouble("fail-speedup", 0.0);
    const std::string expect_fp = args.get(fp_flag);

    bool failed = !repeats_ok;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const exp::sweep::ModeComparison &c = results[i];
        if (fail_err > 0.0 && c.meanAbsSlowdownErrPct > fail_err) {
            std::cerr << prog << ":" << labels[i]
                      << " mean |slowdown err| "
                      << c.meanAbsSlowdownErrPct
                      << "% exceeds the --fail-err-pct=" << fail_err
                      << " bound\n";
            failed = true;
        }
        if (fail_speedup > 0.0 && c.speedup() < fail_speedup) {
            std::cerr << prog << ":" << labels[i] << " speedup "
                      << c.speedup() << "x below the --fail-speedup="
                      << fail_speedup << " bound\n";
            failed = true;
        }
    }
    if (!expect_fp.empty()) {
        const std::uint64_t want = std::stoull(expect_fp, nullptr, 16);
        const std::uint64_t got = results.front().sampledDigest;
        if (got != want) {
            std::cerr << prog << ": " << fp_noun << " fingerprint "
                      << std::hex << got << " does not match expected "
                      << want << std::dec << " — the sampled path "
                      << "drifted\n";
            failed = true;
        } else {
            std::cout << fp_noun << " fingerprint matches --" << fp_flag
                      << "\n";
        }
    }
    if (failed)
        return 1;
    std::cout << "all gates passed\n";
    return 0;
}

} // namespace dvfs::bench

#endif // DVFS_BENCH_MODE_COMPARISON_HH
