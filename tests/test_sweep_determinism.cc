/**
 * @file
 * Differential determinism: growing a sweep grid never perturbs the
 * cells it already contained.
 *
 * The contract that makes this work: a cell's simulation inputs are a
 * pure function of its (workload, frequency, seed) coordinates —
 * never of its flattened index, the grid shape, or the schedule. So
 * adding a workload, a frequency, or a seed to a spec produces a
 * superset grid whose shared cells are bit-identical to the smaller
 * grid's.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "exp/sweep/fingerprint.hh"
#include "exp/sweep/sweep.hh"

using namespace dvfs;
using exp::sweep::runSweep;
using exp::sweep::SweepSpec;

namespace {

SweepSpec
baseSpec()
{
    SweepSpec spec;
    spec.workloads = {wl::syntheticSmall(2, 60)};
    spec.frequencies = {Frequency::ghz(1.0), Frequency::ghz(4.0)};
    spec.seeds = SweepSpec::replicateSeeds(42, 2);
    return spec;
}

/**
 * Every (workload, frequency, seed) cell of @p small must be
 * bit-identical in @p big, looked up by coordinates.
 */
void
expectSubgrid(const exp::sweep::SweepResult &small,
              const exp::sweep::SweepResult &big)
{
    const auto &spec = small.spec;
    for (std::size_t w = 0; w < spec.workloads.size(); ++w) {
        // Workload lookup by position of the same name in big's list.
        std::size_t bw = spec.workloads.size();
        for (std::size_t i = 0; i < big.spec.workloads.size(); ++i) {
            if (big.spec.workloads[i].name == spec.workloads[w].name) {
                bw = i;
                break;
            }
        }
        ASSERT_LT(bw, big.spec.workloads.size());

        for (auto freq : spec.frequencies) {
            for (std::size_t s = 0; s < spec.seeds.size(); ++s) {
                // Seed lookup by value.
                std::size_t bs = big.spec.seeds.size();
                for (std::size_t i = 0; i < big.spec.seeds.size(); ++i) {
                    if (big.spec.seeds[i] == spec.seeds[s]) {
                        bs = i;
                        break;
                    }
                }
                ASSERT_LT(bs, big.spec.seeds.size());

                EXPECT_EQ(
                    exp::sweep::fingerprintRun(small.at(w, freq, s)),
                    exp::sweep::fingerprintRun(big.at(bw, freq, bs)))
                    << "workload " << spec.workloads[w].name << " freq "
                    << freq.toString() << " seed " << spec.seeds[s];
            }
        }
    }
}

} // namespace

TEST(SweepDeterminism, AddingAWorkloadPreservesExistingCells)
{
    auto small = runSweep(baseSpec(), 2);
    auto spec = baseSpec();
    spec.workloads.push_back(wl::syntheticSmall(4, 40));
    auto big = runSweep(spec, 2);
    expectSubgrid(small, big);
}

TEST(SweepDeterminism, AddingAFrequencyPreservesExistingCells)
{
    auto small = runSweep(baseSpec(), 2);
    auto spec = baseSpec();
    spec.frequencies.insert(spec.frequencies.begin(),
                            Frequency::ghz(2.0));
    auto big = runSweep(spec, 2);
    expectSubgrid(small, big);
}

TEST(SweepDeterminism, AddingASeedPreservesExistingCells)
{
    auto small = runSweep(baseSpec(), 2);
    auto spec = baseSpec();
    spec.seeds = SweepSpec::replicateSeeds(42, 4);
    auto big = runSweep(spec, 2);
    expectSubgrid(small, big);
}

TEST(SweepDeterminism, FrequenciesShareTheSeed)
{
    // Predictor experiments require the *same* instruction stream at
    // every operating point: the seed depends on (workload, seed
    // index) only, never on frequency. Witness: identical allocated
    // bytes and event counts across frequencies of one workload.
    auto res = runSweep(baseSpec(), 2);
    const auto &a = res.at(0, std::size_t{0}, 0);
    const auto &b = res.at(0, std::size_t{1}, 0);
    EXPECT_NE(a.freq.toMHz(), b.freq.toMHz());
    EXPECT_EQ(a.allocatedBytes, b.allocatedBytes);
    EXPECT_NE(exp::sweep::fingerprintRun(a),
              exp::sweep::fingerprintRun(b));
}

TEST(SweepDeterminism, ReplicateSeedsPrefixStable)
{
    // Growing the seed list keeps the existing seeds: seeds[i] is a
    // pure function of (base, i).
    auto four = SweepSpec::replicateSeeds(42, 4);
    auto eight = SweepSpec::replicateSeeds(42, 8);
    ASSERT_EQ(four.size(), 4u);
    ASSERT_EQ(eight.size(), 8u);
    for (std::size_t i = 0; i < four.size(); ++i)
        EXPECT_EQ(four[i], eight[i]);
}

TEST(SweepDeterminism, ReplicateSeedsDecorrelated)
{
    // All distinct, and a different base produces a disjoint set.
    auto a = SweepSpec::replicateSeeds(42, 16);
    auto b = SweepSpec::replicateSeeds(43, 16);
    std::set<std::uint64_t> seen(a.begin(), a.end());
    EXPECT_EQ(seen.size(), a.size());
    for (auto s : b)
        EXPECT_FALSE(seen.count(s)) << "seed collision across bases";
}

TEST(SweepDeterminism, IndexRoundTrips)
{
    auto spec = baseSpec();
    spec.workloads.push_back(wl::syntheticSmall(4, 40));
    for (std::size_t i = 0; i < spec.cellCount(); ++i) {
        auto cell = spec.cell(i);
        EXPECT_EQ(cell.index, i);
        EXPECT_LT(cell.workload, spec.workloads.size());
        EXPECT_LT(cell.freq, spec.frequencies.size());
        EXPECT_LT(cell.seed, spec.seeds.size());
        EXPECT_EQ(spec.indexOf(cell.workload, cell.freq, cell.seed), i);
    }
}
