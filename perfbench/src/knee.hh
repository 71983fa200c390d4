/**
 * @file
 * Knee search on a geometric rate ladder.
 *
 * The serving capacity a workload reports is the highest ladder rung
 * whose probes pass (p99 within the limit, nothing shed or failed, no
 * growing backlog, generator on schedule). Rungs are rate(k) =
 * base * step^k, so the answer is quantised to one step; the step must
 * be finer than the regression bound on the capacity metric.
 *
 * The search assumes pass/fail is monotone in the rate but expects a
 * noisy probe near the knee. It gallops from a starting rung until the
 * outcome flips, bisects between the highest passing and lowest failing
 * rung, and then spends the rest of its budget re-probing the two rungs
 * at the boundary. A rung counts as passing while at least half of its
 * probes passed, so neither one lucky nor one unlucky probe sets the
 * result, and the answer moves up or down a rung as evidence builds.
 */

#ifndef PERFBENCH_KNEE_HH
#define PERFBENCH_KNEE_HH

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>

namespace perfbench {

struct Ladder {
    double base = 1.0;  ///< rate of rung 0 (requests/s)
    double step = 1.05; ///< ratio between adjacent rungs (> 1)
    int top = 0;        ///< highest rung index probed

    double rate(int k) const { return base * std::pow(step, k); }
};

struct KneeResult {
    int rung = -1;   ///< highest passing rung; -1 if none passed
    int probes = 0;  ///< probes spent
    std::map<int, int> passes, fails;  ///< per-rung probe outcomes
};

/**
 * Find the knee by calling @p probe(rung), starting at rung @p start,
 * for as long as @p more() allows another probe.
 */
inline KneeResult
findKnee(const Ladder &ladder, int start, const std::function<bool()> &more,
         const std::function<bool(int)> &probe)
{
    KneeResult r;
    auto tally = [](const std::map<int, int> &m, int k) {
        auto it = m.find(k);
        return it == m.end() ? 0 : it->second;
    };
    auto tries = [&](int k) { return tally(r.passes, k) + tally(r.fails, k); };
    auto passing = [&](int k) {
        return tally(r.passes, k) > 0 &&
               tally(r.passes, k) >= tally(r.fails, k);
    };
    auto run = [&](int k) {
        ++r.probes;
        const bool ok = probe(k);
        (ok ? r.passes : r.fails)[k] += 1;
        return ok;
    };

    int lo = -1;              // highest rung taken as passing
    int hi = ladder.top + 1;  // lowest rung above lo taken as failing

    // Gallop away from the start, in the direction its probe points,
    // with doubling jumps until the bracket [lo, hi] is found.
    int k = std::clamp(start, 0, ladder.top);
    if (!more())
        return r;
    const bool up = run(k);
    (up ? lo : hi) = k;
    for (int jump = 1; more(); jump *= 2) {
        k = up ? std::min(ladder.top, lo + jump) : std::max(0, hi - jump);
        if (k <= lo || k >= hi)
            break;
        if (run(k)) {
            lo = k;
            if (!up)
                break;
        } else {
            hi = k;
            if (up)
                break;
        }
    }

    while (more()) {
        if (hi - lo > 1) {
            const int mid = lo + (hi - lo) / 2;
            (run(mid) ? lo : hi) = mid;
            continue;
        }
        if (lo < 0)
            break;  // even the lowest rung failed
        // Re-probe the boundary rung with fewer probes so far.
        run(hi > ladder.top || tries(lo) <= tries(hi) ? lo : hi);
        if (!passing(lo)) {
            hi = lo;
            lo = -1;
            for (const auto &[rung, n] : r.passes) {
                if (rung < hi && passing(rung))
                    lo = rung;
            }
        } else if (hi <= ladder.top && passing(hi)) {
            lo = hi;
            hi = ladder.top + 1;
            for (const auto &[rung, n] : r.fails) {
                if (rung > lo && !passing(rung)) {
                    hi = rung;
                    break;
                }
            }
        }
    }
    r.rung = lo;
    return r;
}

} // namespace perfbench

#endif // PERFBENCH_KNEE_HH
