/**
 * @file
 * The body fig9_sampling_accuracy and fig10_managed_sampling share.
 *
 * Both figures repeat one exp::sweep::ModeComparison per
 * configuration, keep the minimum walls, fail on digest drift across
 * repeats, print the sampling provenance and the grid digests, and
 * gate on mean slowdown error, speedup and a pinned sampled
 * fingerprint. Only the grid (fixed or managed) and the headline
 * table differ.
 */

#ifndef DVFS_BENCH_MODE_COMPARISON_HH
#define DVFS_BENCH_MODE_COMPARISON_HH

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "exp/sweep/differential.hh"
#include "exp/table.hh"

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
 * Print the numbers the headline tables leave out, one row per
 * configuration (@p labels name them): each mode's min wall, the
 * sampled runs' analytically charged and detailed action counts,
 * cold-model fallbacks, the slowdown samples behind the error means,
 * and the sampled digest.
 */
inline void
printProvenance(const std::vector<exp::sweep::ModeComparison> &results,
                const std::vector<std::string> &labels)
{
    exp::Table t({"config", "exact ms", "sampled ms", "ff actions",
                  "detail actions", "ff fallbacks", "slowdown samples",
                  "sampled fingerprint"});
    for (std::size_t i = 0; i < results.size(); ++i) {
        const exp::sweep::ModeComparison &c = results[i];
        char fp[24];
        std::snprintf(fp, sizeof(fp), "0x%016llx",
                      static_cast<unsigned long long>(c.sampledDigest));
        t.addRow({labels[i], exp::Table::fmt(c.exactWallSec * 1000.0, 1),
                  exp::Table::fmt(c.sampledWallSec * 1000.0, 1),
                  std::to_string(c.sampleTotals.ffActions),
                  std::to_string(c.sampleTotals.detailActions),
                  std::to_string(c.sampleTotals.ffFallbacks),
                  std::to_string(c.slowdownSamples), fp});
    }
    std::cout << "\nsampling provenance:\n";
    t.print(std::cout);
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
            std::cerr << prog << ": " << labels[i]
                      << " mean |slowdown err| "
                      << c.meanAbsSlowdownErrPct
                      << "% exceeds the --fail-err-pct=" << fail_err
                      << " bound\n";
            failed = true;
        }
        if (fail_speedup > 0.0 && c.speedup() < fail_speedup) {
            std::cerr << prog << ": " << labels[i] << " speedup "
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
