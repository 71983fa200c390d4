/**
 * @file
 * Per-thread scaling laws: the Stall / Leading Loads / CRIT estimators
 * and the BURST extension.
 *
 * Every whole-application predictor in this library reduces, for one
 * thread over one interval, to the classic two-component law
 * (Section II-A of the paper):
 *
 *     T(f_target) = T_scaling * (f_base / f_target) + T_nonscaling
 *
 * The estimators differ only in how T_nonscaling is read from the
 * hardware counters; BURST adds the store-queue-full time to whichever
 * estimator is in use (Section III-D).
 */

#ifndef DVFS_PRED_SCALING_HH
#define DVFS_PRED_SCALING_HH

#include <algorithm>
#include <cstdint>
#include <string>

#include "sim/time.hh"
#include "uarch/perf_counters.hh"

namespace dvfs::pred {

/** Which hardware counter supplies the non-scaling component. */
enum class BaseEstimator {
    StallTime,    ///< commit-stall cycles [16], [26]
    LeadingLoads, ///< leading-load latency per miss burst [16],[26],[34]
    Crit,         ///< critical dependent-miss path (CRIT) [31]
    Oracle,       ///< simulator's true memory time (analysis only)
};

/** A per-thread scaling model: base estimator +/- BURST. */
struct ModelSpec {
    BaseEstimator base = BaseEstimator::Crit;
    bool burst = false;

    std::string name() const;
};

/** Printable name of a base estimator. */
const char *baseEstimatorName(BaseEstimator e);

/** Non-scaling time of a counter block under @p spec. */
inline Tick
nonscalingTime(const uarch::PerfCounters &c, const ModelSpec &spec)
{
    Tick n = 0;
    switch (spec.base) {
      case BaseEstimator::StallTime:
        n = c.stallNonscaling;
        break;
      case BaseEstimator::LeadingLoads:
        n = c.leadingNonscaling;
        break;
      case BaseEstimator::Crit:
        n = c.critNonscaling;
        break;
      case BaseEstimator::Oracle:
        n = c.trueMemTime;
        break;
    }
    if (spec.burst)
        n += c.sqFullTime;
    return n;
}

/**
 * Round a non-negative double to the nearest integer, halves away from
 * zero: equal to std::llround on [0, 2^63), without the libm call.
 *
 * Truncation is exact, and so is the remainder x - trunc(x): below
 * 2^52 it is a multiple of ulp(x) smaller than 1, hence representable,
 * and from 2^52 up every double is an integer, so it is 0.
 */
inline Tick
roundHalfAway(double x)
{
    const auto t = static_cast<std::int64_t>(x);
    // Added, not branched on: the remainder's side of 0.5 is a coin
    // flip the branch predictor cannot learn.
    return static_cast<Tick>(t) +
           static_cast<Tick>(x - static_cast<double>(t) >= 0.5);
}

/**
 * An interval's split under one ModelSpec: the non-scaling part, which
 * is clamped to the interval, and the scaling rest.
 */
struct SpanSplit {
    Tick nonscaling;
    Tick scaling;

    SpanSplit(Tick span, Tick nonscaling_raw)
        : nonscaling(std::min(nonscaling_raw, span)),
          scaling(span - nonscaling)
    {
    }

    /** The interval's predicted duration at @p ratio = f_base/f_target. */
    Tick
    at(double ratio) const
    {
        return roundHalfAway(static_cast<double>(scaling) * ratio) +
               nonscaling;
    }
};

/**
 * Predict the duration of an interval measured as @p span at the base
 * frequency, given the counters accumulated within it.
 *
 * @param span  Observed duration at the base frequency.
 * @param c     Counter deltas over the interval.
 * @param spec  Estimator choice.
 * @param ratio f_base / f_target.
 */
inline Tick
predictSpan(Tick span, const uarch::PerfCounters &c, const ModelSpec &spec,
            double ratio)
{
    return SpanSplit(span, nonscalingTime(c, spec)).at(ratio);
}

} // namespace dvfs::pred

#endif // DVFS_PRED_SCALING_HH
