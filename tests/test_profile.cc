/**
 * @file
 * The sampling profiler observes without perturbing: profiled runs
 * (exact, sampled, and a 2-worker sweep) reproduce the unprofiled
 * fingerprints while collecting samples, a profiled sampled grid keeps
 * its pinned digest, a nested start() is fatal, and a SIGPROF after
 * stop() is harmless.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <vector>

#include "exp/experiment.hh"
#include "exp/sweep/fingerprint.hh"
#include "exp/sweep/pool.hh"
#include "exp/sweep/sweep.hh"
#include "sim/profile.hh"
#include "wl/suite.hh"

using namespace dvfs;
namespace prof = sim::prof;

namespace {

/** The first DaCapo workload: long enough to span many timer ticks. */
const wl::WorkloadParams &
workload()
{
    static const wl::WorkloadParams params = wl::dacapoSuite().front();
    return params;
}

std::uint64_t
fixedRun(exp::SimMode mode)
{
    exp::RunOptions opts;
    opts.mode = mode;
    return exp::sweep::fingerprintRun(
        exp::runFixed(workload(), Frequency::ghz(2.0), opts));
}

/** Run @p body under the profiler until it has taken a sample. */
template <typename Body>
prof::Snapshot
profiled(Body body)
{
    prof::Snapshot snap;
    for (int attempt = 0; attempt < 50 && snap.total() == 0; ++attempt) {
        prof::start();
        body();
        snap = prof::stop();
    }
    return snap;
}

} // namespace

TEST(Profile, ExactRunIsBitIdentical)
{
    const std::uint64_t plain = fixedRun(exp::SimMode::Exact);
    const prof::Snapshot snap = profiled(
        [&] { EXPECT_EQ(fixedRun(exp::SimMode::Exact), plain); });
    EXPECT_GT(snap.total(), 0u);
}

TEST(Profile, SampledRunIsBitIdentical)
{
    const std::uint64_t plain = fixedRun(exp::SimMode::Sampled);
    const prof::Snapshot snap = profiled(
        [&] { EXPECT_EQ(fixedRun(exp::SimMode::Sampled), plain); });
    EXPECT_GT(snap.total(), 0u);
}

/**
 * sweep_bench's sampled grid (the first four DaCapo workloads at 1-4
 * GHz) under the profiler, with the fast-path and workload-generator
 * scopes live on every fast-forwarded action, the record scope on every
 * sync event and the digest scopes on every fingerprint: its digest
 * stays the pinned sampled golden.
 */
TEST(Profile, SampledGridKeepsPinnedDigest)
{
    exp::sweep::SweepSpec spec;
    for (const auto &params : wl::dacapoSuite()) {
        if (spec.workloads.size() >= 4)
            break;
        spec.workloads.push_back(params);
    }
    spec.frequencies = {Frequency::ghz(1.0), Frequency::ghz(2.0),
                        Frequency::ghz(3.0), Frequency::ghz(4.0)};
    spec.seeds = exp::sweep::SweepSpec::replicateSeeds(42, 1);
    spec.runOptions.mode = exp::SimMode::Sampled;
    const prof::Snapshot snap = profiled([&] {
        auto res = exp::sweep::runSweep(spec, 2);
        EXPECT_EQ(exp::sweep::gridDigest(res.cells), 0x681d8e2cbc485463ULL);
    });
    EXPECT_GT(snap.total(), 0u);
}

TEST(Profile, TwoWorkerSweepIsBitIdentical)
{
    const std::vector<Frequency> freqs = {Frequency::ghz(1.0),
                                          Frequency::ghz(4.0)};
    auto grid = [&](unsigned workers) {
        return exp::sweep::sweepMap<std::uint64_t>(
            freqs.size(), workers, [&](std::size_t i) {
                return exp::sweep::fingerprintRun(
                    exp::runFixed(workload(), freqs[i]));
            });
    };
    const std::vector<std::uint64_t> plain = grid(1);
    const prof::Snapshot snap =
        profiled([&] { EXPECT_EQ(grid(2), plain); });
    EXPECT_GT(snap.total(), 0u);
}

TEST(ProfileDeathTest, NestedStartIsFatal)
{
    EXPECT_EXIT(
        {
            prof::start();
            prof::start();
        },
        ::testing::ExitedWithCode(1), "already started");
}

TEST(Profile, SigprofAfterStopIsHarmless)
{
    prof::start();
    prof::stop();
    // A tick that was already in flight when the timer was disarmed.
    std::raise(SIGPROF);
    SUCCEED();
}
