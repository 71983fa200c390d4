/**
 * @file
 * Differential test: the production cluster generators, which write a
 * full spec's addresses into the program's own buffer, against the
 * nested-vector builders in tests/reference_cluster_gen.hh.
 *
 * Every pull replays the pre-pull RNG state through the oracle and
 * requires, right after the pull (while the spec's addresses are
 * valid), the same addresses chain by chain, shape key, load count,
 * overlap and lite fields, and the same RNG state afterwards.
 *
 * - WorkerProgram: avrora, xalan and sunflow parameters, the
 *   straggler worker and a regular one, with the lite-timing hint
 *   raised on a seeded random half of the pulls.
 * - GcWorkerProgram: the GC workers of a real managed run, wrapped
 *   in place, in exact mode (always full) and in sampled mode, where
 *   the first collection materialises and later fast-forwarded ones
 *   go lite.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "reference_cluster_gen.hh"
#include "sim/rng.hh"
#include "sim/sampling.hh"
#include "wl/builder.hh"
#include "wl/programs.hh"
#include "wl/suite.hh"

using namespace dvfs;
using dvfs::test::ReferenceCluster;

namespace {

/** The production spec matches the oracle's, field by field. */
void
expectSameCluster(const uarch::MissClusterSpec &got,
                  const ReferenceCluster &want)
{
    EXPECT_EQ(got.lite(), want.lite());
    EXPECT_EQ(got.liteChains, want.liteChains);
    EXPECT_EQ(got.liteChainDepth, want.liteChainDepth);
    EXPECT_EQ(got.overlapInstructions, want.overlapInstructions);
    EXPECT_EQ(got.shapeHint, want.shapeHint);
    EXPECT_EQ(got.loadCount(), want.loadCount());
    if (want.lite()) {
        EXPECT_EQ(got.chains, 0u);
        return;
    }
    ASSERT_EQ(got.chains, want.chains.size());
    for (std::uint32_t c = 0; c < got.chains; ++c) {
        const auto chain = got.chain(c);
        ASSERT_EQ(chain.size(), want.chains[c].size()) << "chain " << c;
        for (std::size_t d = 0; d < chain.size(); ++d)
            EXPECT_EQ(chain[d], want.chains[c][d])
                << "chain " << c << " hop " << d;
    }
}

wl::SharedWorkload
shared(const wl::WorkloadParams &params)
{
    wl::SharedWorkload sh;
    sh.params = params;
    for (std::uint32_t i = 0; i < params.numLocks; ++i)
        sh.locks.push_back(100 + i);
    if (params.barrierEvery > 0)
        sh.barrier = 200;
    for (std::uint32_t w = 0; w < params.appThreads; ++w)
        sh.workers.push_back(w);
    return sh;
}

/**
 * A GC worker's program, wrapped: each pull is checked against the
 * oracle at the runtime state the pull saw.
 */
class CheckedGcProgram : public os::ThreadProgram
{
  public:
    CheckedGcProgram(std::unique_ptr<os::ThreadProgram> inner,
                     const rt::Runtime &rt)
        : _inner(std::move(inner)), _rt(rt)
    {
    }

    os::Action
    next(os::ThreadContext &ctx) override
    {
        sim::Rng oracle = ctx.rng;
        const std::uint32_t collections = _rt.collections();
        const std::uint64_t base = _rt.nurseryScanBase();
        const std::uint64_t bytes = _rt.nurseryScanBytes();
        os::Action a = _inner->next(ctx);
        if (a.kind == os::ActionKind::MissCluster) {
            expectSameCluster(
                a.cluster,
                test::referenceGcTraceCluster(collections, base, bytes,
                                              oracle, ctx.liteTiming));
            if (a.cluster.lite())
                ++lite;
            else if (collections == 1)
                ++firstFull;
            else
                ++laterFull;
        }
        // Only trace clusters draw, so every pull must leave the
        // generator where the oracle did.
        EXPECT_TRUE(ctx.rng == oracle);
        return a;
    }

    std::uint64_t firstFull = 0;  ///< full clusters, first collection
    std::uint64_t laterFull = 0;  ///< full clusters, later collections
    std::uint64_t lite = 0;       ///< lite clusters

  private:
    std::unique_ptr<os::ThreadProgram> _inner;
    const rt::Runtime &_rt;
};

struct GcCounts {
    std::uint64_t firstFull = 0, laterFull = 0, lite = 0;
    std::uint32_t collections = 0;
};

/** Run @p name with every GC worker checked; sum the pull counts. */
GcCounts
runCheckedGc(const std::string &name, bool sampled)
{
    wl::BenchInstance inst = wl::buildBenchmark(
        wl::benchmarkByName(name),
        wl::defaultSystemConfig(Frequency::ghz(2.0)));
    if (sampled)
        inst.sys->enableSampling(sim::SamplingConfig{});
    std::vector<CheckedGcProgram *> checked;
    for (os::ThreadId tid = 0; tid < inst.sys->numThreads(); ++tid) {
        os::Thread &t = inst.sys->threadMut(tid);
        if (!t.service)
            continue;
        auto wrapped = std::make_unique<CheckedGcProgram>(
            std::move(t.program), *inst.runtime);
        checked.push_back(wrapped.get());
        t.program = std::move(wrapped);
    }
    EXPECT_FALSE(checked.empty());
    EXPECT_TRUE(inst.sys->run().finished);

    GcCounts n;
    n.collections = inst.runtime->collections();
    for (const CheckedGcProgram *p : checked) {
        n.firstFull += p->firstFull;
        n.laterFull += p->laterFull;
        n.lite += p->lite;
    }
    return n;
}

} // namespace

TEST(ClusterGenDifferential, WorkerProgramMatchesReference)
{
    for (const char *name : {"avrora", "xalan", "sunflow"}) {
        SCOPED_TRACE(name);
        const wl::WorkloadParams params = wl::benchmarkByName(name);
        const wl::SharedWorkload sh = shared(params);
        for (std::uint32_t idx : {0u, 1u}) {
            SCOPED_TRACE(idx);
            wl::WorkerProgram w(sh, idx);
            sim::Rng rng(0x5eed + idx);
            sim::Rng hint(0xc1u + idx);
            std::uint64_t full = 0, lite = 0;
            for (int pull = 0; pull < 20'000; ++pull) {
                os::ThreadContext ctx{idx, rng, hint.nextBool(0.5)};
                sim::Rng oracle = rng;
                os::Action a = w.next(ctx);
                if (a.kind == os::ActionKind::Exit)
                    break;
                if (a.kind != os::ActionKind::MissCluster)
                    continue;
                expectSameCluster(
                    a.cluster, test::referenceWorkerCluster(
                                   params, idx, oracle, ctx.liteTiming));
                ASSERT_TRUE(rng == oracle) << "pull " << pull;
                ++(ctx.liteTiming ? lite : full);
            }
            EXPECT_GT(full, 100u);
            EXPECT_GT(lite, 100u);
        }
    }
}

TEST(ClusterGenDifferential, GcTraceClustersMatchReferenceExact)
{
    const GcCounts n = runCheckedGc("xalan", false);
    EXPECT_GT(n.collections, 1u);
    EXPECT_GT(n.firstFull, 0u);
    EXPECT_GT(n.laterFull, 0u);
    EXPECT_EQ(n.lite, 0u);
}

TEST(ClusterGenDifferential, GcTraceClustersMatchReferenceSampled)
{
    const GcCounts n = runCheckedGc("xalan", true);
    EXPECT_GT(n.collections, 1u);
    EXPECT_GT(n.firstFull, 0u);
    EXPECT_GT(n.lite, 0u);
}
