/**
 * @file
 * Golden-trace regression: a small fixed sweep must produce
 * bit-identical results serially and at any worker count.
 *
 * "Bit-identical" is checked three ways, strongest first: the FNV-1a
 * fingerprint of every cell (covers counters, energy doubles and the
 * full epoch record), the raw totalTime ticks, and a derived
 * predictor-error double computed the way fig3 computes it. The
 * managed-run path is covered through sweepMap with the same
 * contract.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "exp/experiment.hh"
#include "exp/sweep/fingerprint.hh"
#include "exp/sweep/sweep.hh"
#include "pred/predictors.hh"

using namespace dvfs;
using exp::sweep::runSweep;
using exp::sweep::SweepSpec;

namespace {

/** The golden grid: 2 synthetic workloads x 2 frequencies x 2 seeds. */
SweepSpec
goldenSpec()
{
    SweepSpec spec;
    spec.workloads = {wl::syntheticSmall(2, 60), wl::syntheticSmall(4, 40)};
    spec.frequencies = {Frequency::ghz(1.0), Frequency::ghz(4.0)};
    spec.seeds = SweepSpec::replicateSeeds(42, 2);
    return spec;
}

exp::sweep::SweepResult
runAt(unsigned workers)
{
    return runSweep(goldenSpec(), workers);
}

/** Bitwise double equality (== would also accept -0.0 vs 0.0). */
bool
sameBits(double a, double b)
{
    std::uint64_t ua, ub;
    std::memcpy(&ua, &a, sizeof(ua));
    std::memcpy(&ub, &b, sizeof(ub));
    return ua == ub;
}

/** Combined digest over a grid: mix cell fingerprints in index order. */
std::uint64_t
gridDigest(const exp::sweep::SweepResult &res)
{
    exp::sweep::Fnv1a h;
    for (const auto &cell : res.cells)
        h.mix(exp::sweep::fingerprintRun(cell));
    return h.digest();
}

} // namespace

TEST(SweepGolden, SerialReferenceMatchesDirectRuns)
{
    // The engine at workers=1 is exactly the serial harness: every
    // cell equals a direct runFixed with the same inputs.
    auto res = runAt(1);
    const auto &spec = res.spec;
    for (std::size_t w = 0; w < spec.workloads.size(); ++w) {
        for (std::size_t f = 0; f < spec.frequencies.size(); ++f) {
            for (std::size_t s = 0; s < spec.seeds.size(); ++s) {
                exp::RunOptions opts = spec.runOptions;
                opts.seed = spec.seeds[s];
                auto direct = exp::runFixed(spec.workloads[w],
                                            spec.frequencies[f], opts);
                const auto &cell = res.at(w, f, s);
                EXPECT_EQ(exp::sweep::fingerprintRun(cell),
                          exp::sweep::fingerprintRun(direct))
                    << "w=" << w << " f=" << f << " s=" << s;
            }
        }
    }
}

TEST(SweepGolden, ParallelBitIdenticalToSerial)
{
    auto serial = runAt(1);
    for (unsigned workers : {2u, 8u}) {
        auto par = runAt(workers);
        ASSERT_EQ(par.cells.size(), serial.cells.size());
        for (std::size_t i = 0; i < serial.cells.size(); ++i) {
            const auto &a = serial.cells[i];
            const auto &b = par.cells[i];
            EXPECT_EQ(exp::sweep::fingerprintRun(a),
                      exp::sweep::fingerprintRun(b))
                << "cell " << i << " workers " << workers;
            EXPECT_EQ(a.totalTime, b.totalTime);
            EXPECT_EQ(a.events, b.events);
            EXPECT_TRUE(sameBits(a.energy.total(), b.energy.total()));
        }
    }
}

TEST(SweepGolden, PredictorErrorsBitIdenticalAcrossWorkerCounts)
{
    // The derived quantity the figures actually print: feed the 1 GHz
    // record to DEP+BURST, compare against the 4 GHz ground truth.
    auto serial = runAt(1);
    auto par = runAt(8);

    pred::DepPredictor p({pred::BaseEstimator::Crit, true}, true);
    for (std::size_t w = 0; w < serial.spec.workloads.size(); ++w) {
        for (std::size_t s = 0; s < serial.spec.seeds.size(); ++s) {
            auto err = [&](const exp::sweep::SweepResult &res) {
                const auto &base = res.at(w, std::size_t{0}, s);
                Tick actual = res.at(w, std::size_t{1}, s).totalTime;
                return pred::Predictor::relativeError(
                    p.predict(base.record, Frequency::ghz(4.0)), actual);
            };
            EXPECT_TRUE(sameBits(err(serial), err(par)))
                << "w=" << w << " s=" << s;
        }
    }
}

TEST(SweepGolden, FingerprintIsInputSensitive)
{
    // Sanity for the witness itself: different seed or frequency must
    // change the fingerprint, otherwise the golden checks above are
    // vacuous.
    auto res = runAt(1);
    EXPECT_NE(exp::sweep::fingerprintRun(res.at(0, std::size_t{0}, 0)),
              exp::sweep::fingerprintRun(res.at(0, std::size_t{0}, 1)));
    EXPECT_NE(exp::sweep::fingerprintRun(res.at(0, std::size_t{0}, 0)),
              exp::sweep::fingerprintRun(res.at(0, std::size_t{1}, 0)));
    EXPECT_NE(exp::sweep::fingerprintRun(res.at(0, std::size_t{0}, 0)),
              exp::sweep::fingerprintRun(res.at(1, std::size_t{0}, 0)));
}

TEST(SweepGolden, CommittedDigestsReproduceAcrossWorkerCounts)
{
    // The pinned exact grid digests. Any bit of divergence in the
    // simulator — event ordering, cache replacement, energy
    // accounting — lands here first. If a change is *intended* to
    // alter simulated behaviour, re-derive both constants (sweep_bench
    // prints the first; this test's failure message prints both) and
    // re-pin them in the same commit, saying why.
    struct GoldenGrid {
        const char *name;
        SweepSpec spec;
        std::uint64_t digest;
    };
    std::vector<GoldenGrid> grids;

    {
        // sweep_bench's default grid: first 4 DaCapo-style benchmarks
        // x 4 operating points x 1 seed.
        GoldenGrid g;
        g.name = "sweep_bench default";
        for (const auto &params : wl::dacapoSuite()) {
            if (g.spec.workloads.size() >= 4)
                break;
            g.spec.workloads.push_back(params);
        }
        g.spec.frequencies = {Frequency::ghz(1.0), Frequency::ghz(2.0),
                              Frequency::ghz(3.0), Frequency::ghz(4.0)};
        g.spec.seeds = SweepSpec::replicateSeeds(42, 1);
        g.digest = 0xb806f47ff81388e0ull;
        grids.push_back(std::move(g));
    }
    {
        // micro_simulator's synthetic sweep grid (BM_SweepSynthetic).
        GoldenGrid g;
        g.name = "micro synthetic";
        g.spec.workloads = {wl::syntheticSmall(2, 40)};
        g.spec.frequencies = {Frequency::ghz(1.0), Frequency::ghz(2.0),
                              Frequency::ghz(3.0), Frequency::ghz(4.0)};
        g.spec.seeds = SweepSpec::replicateSeeds(42, 4);
        g.digest = 0x1f557120fc16bf8full;
        grids.push_back(std::move(g));
    }

    for (const auto &g : grids) {
        for (unsigned workers : {1u, 2u, 8u}) {
            auto res = runSweep(g.spec, workers);
            EXPECT_EQ(gridDigest(res), g.digest)
                << g.name << " workers=" << workers;
        }
    }
}

TEST(SweepGolden, ManagedSweepSchedulingInvariant)
{
    // sweepMap over managed runs: same contract, different run type.
    auto managed = [&](unsigned workers) {
        std::vector<wl::WorkloadParams> wls = {wl::syntheticSmall(2, 60),
                                               wl::syntheticSmall(4, 40)};
        return exp::sweep::sweepMap<exp::ManagedRunOutput>(
            wls.size(), workers, [&](std::size_t i) {
                mgr::ManagerConfig mc;
                mc.tolerableSlowdown = 0.10;
                return exp::runManaged(wls[i], mc,
                                       power::VfTable::haswell());
            });
    };
    auto serial = managed(1);
    auto par = managed(8);
    ASSERT_EQ(serial.size(), par.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(exp::sweep::fingerprintRun(serial[i]),
                  exp::sweep::fingerprintRun(par[i]))
            << "managed cell " << i;
        EXPECT_EQ(serial[i].totalTime, par[i].totalTime);
        EXPECT_EQ(serial[i].decisions.size(), par[i].decisions.size());
    }
}
