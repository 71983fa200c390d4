/**
 * @file
 * Self-tests of the benchmark's own logic: the percentile rule, the
 * knee search on synthetic latency curves, and detection of a value
 * that differs from its pin. Exit status 0 when every check holds.
 *
 * Run: python3 perfbench/run.py --selftest
 */

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "knee.hh"
#include "pins.hh"
#include "stats.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

int g_failures = 0;

void
check(bool ok, const std::string &what)
{
    std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok)
        ++g_failures;
}

void
testPercentile()
{
    check(percentile({}, 0.5) == 0.0, "percentile of nothing is 0");
    check(percentile({7.0}, 0.99) == 7.0, "single sample is every rank");
    check(percentile({4, 1, 3, 2}, 0.5) == 2.0,
          "p50 of 1..4 is the 2nd smallest (nearest rank)");
    std::vector<double> hundred;
    for (int i = 100; i >= 1; --i)
        hundred.push_back(i);
    check(percentile(hundred, 0.99) == 99.0, "p99 of 1..100 is 99");
    check(percentile(hundred, 1.0) == 100.0, "p100 is the maximum");
    check(percentile(hundred, 0.0) == 1.0, "p0 is the minimum");
    check(median({5, 1, 9}) == 5.0, "median of 3 is the middle");

    // Three windows of 100; one holds a stall. Its p99 must not leak
    // into the result, and the trailing partial window is ignored.
    std::vector<double> lat;
    for (int w = 0; w < 3; ++w) {
        for (int i = 1; i <= 100; ++i)
            lat.push_back(w == 1 && i > 50 ? 1000.0 : i);
    }
    lat.push_back(5000.0);
    check(windowed(lat, 100, 0.99) == 99.0,
          "windowed p99 ignores one stalled window");
    check(windowed({3, 1, 2}, 100, 0.5) == 2.0,
          "windowed falls back to the plain percentile");
}

/** p99 of an M/M/1-like queue: service time / (1 - load). */
double
syntheticP99(double rate, double capacity)
{
    const double load = rate / capacity;
    return load >= 1.0 ? 1e9 : 0.2 / (1.0 - load);
}

/** A probe budget of @p n calls. */
std::function<bool()>
upTo(int n)
{
    auto left = std::make_shared<int>(n);
    return [left] { return (*left)-- > 0; };
}

void
testKnee()
{
    const Ladder ladder{100.0, 1.05, 80};
    const double capacity = 5000.0, limit = 1.0;
    // The exact answer: highest rung with p99 <= limit.
    int want = -1;
    for (int k = 0; k <= ladder.top; ++k) {
        if (syntheticP99(ladder.rate(k), capacity) <= limit)
            want = k;
    }
    for (int start : {0, 10, want, want + 1, 70, 80}) {
        auto r = findKnee(ladder, start, upTo(40), [&](int k) {
            return syntheticP99(ladder.rate(k), capacity) <= limit;
        });
        check(r.rung == want, "knee from rung " + std::to_string(start) +
                                  " is rung " + std::to_string(want) +
                                  " (got " + std::to_string(r.rung) + ")");
    }

    // One unlucky probe at the knee, and one lucky probe just above it:
    // re-probing the boundary must still settle on the knee.
    bool unlucky = false, lucky = false;
    auto r = findKnee(ladder, 10, upTo(40), [&](int k) {
        if (k == want && !unlucky) {
            unlucky = true;
            return false;
        }
        if (k == want + 1 && !lucky) {
            lucky = true;
            return true;
        }
        return syntheticP99(ladder.rate(k), capacity) <= limit;
    });
    check(r.rung == want, "one unlucky and one lucky probe do not move "
                          "the knee (got " + std::to_string(r.rung) + ")");

    // Nothing passes: no rung; everything passes: the top rung.
    auto none = findKnee(ladder, 40, upTo(40), [](int) { return false; });
    check(none.rung == -1, "no passing rung reports -1");
    auto all = findKnee(ladder, 40, upTo(40), [](int) { return true; });
    check(all.rung == ladder.top, "all passing reports the top rung");

    // The probe budget is respected.
    auto capped = findKnee(ladder, 0, upTo(5), [&](int k) {
        return syntheticP99(ladder.rate(k), capacity) <= limit;
    });
    check(capped.probes <= 5, "probe budget is respected");
}

void
testPinMismatch()
{
    Pins pins;
    pins.set(cellKey("exact", "avrora", 1000, 42), Pin{0x1234, 99});
    pins.set(cellKey("exact", "xalan", 1000, 42), Pin{0x5678, 99});

    Outcome good;
    checkCells({cellKey("exact", "avrora", 1000, 42),
                cellKey("exact", "xalan", 1000, 42)},
               {0x1234, 0x5678}, pins, good);
    check(good.correct && good.attempted == 2 && good.failed == 0,
          "matching values pass");

    Outcome bad;
    checkCells({cellKey("exact", "avrora", 1000, 42),
                cellKey("exact", "xalan", 1000, 42)},
               {0x1234, 0x5679}, pins, bad);
    check(!bad.correct && bad.attempted == 2 && bad.failed == 1,
          "a one-bit difference fails the run and counts one failure");

    Outcome missing;
    checkCells({cellKey("exact", "sunflow", 1000, 42)}, {0x1}, pins,
               missing);
    check(!missing.correct && missing.failed == 1,
          "a value with no pin fails");
}

} // namespace

int
main()
{
    testPercentile();
    testKnee();
    testPinMismatch();
    std::printf("%s: %d failure(s)\n", g_failures ? "FAILED" : "passed",
                g_failures);
    return g_failures ? 1 : 0;
}
