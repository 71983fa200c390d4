/**
 * @file
 * Sweep stress tests (label: slow). Heavier grids and many repeats of
 * the pool machinery — the configurations most likely to surface a
 * race under ThreadSanitizer or a latent aggregation bug.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "exp/sweep/fingerprint.hh"
#include "exp/sweep/pool.hh"
#include "exp/sweep/sweep.hh"

using namespace dvfs;
using exp::sweep::runSweep;
using exp::sweep::SweepSpec;

TEST(SweepStress, ManyTinyCellsManyWorkers)
{
    // ~2000 near-empty cells across heavily oversubscribed workers:
    // maximum scheduling churn per unit of work.
    const std::size_t n = 2000;
    for (unsigned workers : {4u, 16u, 32u}) {
        auto out = exp::sweep::sweepMap<std::uint64_t>(
            n, workers, [](std::size_t i) {
                // A little arithmetic so the cell isn't optimized away.
                std::uint64_t h = 0xcbf29ce484222325ULL;
                h = (h ^ i) * 0x100000001b3ULL;
                return h;
            });
        ASSERT_EQ(out.size(), n);
        for (std::size_t i = 0; i < n; ++i) {
            std::uint64_t h = 0xcbf29ce484222325ULL;
            h = (h ^ i) * 0x100000001b3ULL;
            ASSERT_EQ(out[i], h) << "cell " << i << " workers " << workers;
        }
    }
}

TEST(SweepStress, RepeatedFailuresLeaveNoResidue)
{
    // Alternate failing and clean runs on fresh pools; under
    // DVFS_SANITIZE this doubles as a leak check for the
    // exception/cancellation path.
    for (int round = 0; round < 25; ++round) {
        const auto bad =
            static_cast<std::size_t>(round % 7);
        try {
            exp::sweep::runIndexed(32, 4, [&](std::size_t i) {
                if (i == bad)
                    throw std::runtime_error("stress failure");
            });
            FAIL() << "round " << round << " did not throw";
        } catch (const exp::sweep::SweepError &e) {
            EXPECT_EQ(e.cell(), bad);
        }
        std::atomic<std::size_t> ran{0};
        exp::sweep::runIndexed(32, 4, [&](std::size_t) { ++ran; });
        EXPECT_EQ(ran.load(), 32u);
    }
}

TEST(SweepStress, LargerSimulationGridBitStable)
{
    // A real simulation grid, big enough that every worker claims
    // cells from the shared cursor, repeated to catch flaky
    // nondeterminism rather than a single lucky schedule.
    SweepSpec spec;
    spec.workloads = {wl::syntheticSmall(2, 40), wl::syntheticSmall(4, 30)};
    spec.frequencies = {Frequency::ghz(1.0), Frequency::ghz(2.0),
                        Frequency::ghz(3.0), Frequency::ghz(4.0)};
    spec.seeds = SweepSpec::replicateSeeds(7, 3);

    auto reference = runSweep(spec, 1);
    std::vector<std::uint64_t> ref_fp;
    ref_fp.reserve(reference.cells.size());
    for (const auto &cell : reference.cells)
        ref_fp.push_back(exp::sweep::fingerprintRun(cell));

    for (int round = 0; round < 3; ++round) {
        auto res = runSweep(spec, 8);
        ASSERT_EQ(res.cells.size(), ref_fp.size());
        for (std::size_t i = 0; i < ref_fp.size(); ++i)
            ASSERT_EQ(exp::sweep::fingerprintRun(res.cells[i]), ref_fp[i])
                << "cell " << i << " round " << round;
    }
}
