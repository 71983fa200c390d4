/**
 * @file
 * Reference miss-cluster generators.
 *
 * These are the cluster builders as they were when a MissClusterSpec
 * owned its addresses as one std::vector per chain: the old
 * WorkerProgram::makeCluster and GcWorkerProgram's trace-cluster
 * builder, with the same RNG draws in the same order (each chain's
 * region roll, then its hops). They are kept as an executable
 * specification of cluster generation. The differential test
 * (tests/test_cluster_gen_differential.cc) replays each production
 * pull's RNG state through these builders and requires the same
 * addresses chain by chain, the same shape key, load count and lite
 * fields, and the same RNG state afterwards.
 *
 * Not used on any simulation path; it lives under tests/ and only
 * the test binary builds it.
 */

#ifndef DVFS_TESTS_REFERENCE_CLUSTER_GEN_HH
#define DVFS_TESTS_REFERENCE_CLUSTER_GEN_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "os/action.hh"
#include "rt/gc_worker.hh"
#include "sim/rng.hh"
#include "wl/params.hh"

namespace dvfs::test {

/** A miss cluster that owns its chains (the old spec layout). */
struct ReferenceCluster {
    std::vector<std::vector<std::uint64_t>> chains;
    std::uint64_t overlapInstructions = 0;
    std::uint32_t shapeHint = 0;
    std::uint32_t liteChains = 0;
    std::uint32_t liteChainDepth = 0;

    bool lite() const { return liteChains != 0; }

    std::uint32_t
    loadCount() const
    {
        if (lite())
            return liteChains * liteChainDepth;
        std::size_t n = 0;
        for (const auto &c : chains)
            n += c.size();
        return static_cast<std::uint32_t>(n);
    }
};

/** The old WorkerProgram::makeCluster for thread @p tid. */
inline ReferenceCluster
referenceWorkerCluster(const wl::WorkloadParams &p, os::ThreadId tid,
                       sim::Rng &rng, bool lite_timing)
{
    ReferenceCluster spec;
    spec.overlapInstructions = p.clusterOverlapInstr;

    std::uint32_t hot = 0, warm = 0, cold = 0;
    for (std::uint32_t c = 0; c < p.chains; ++c) {
        double roll = rng.nextDouble();
        std::uint64_t base, span;
        if (roll < p.pHot) {
            base = wl::kHotBase + tid * wl::kHotStride;
            span = wl::kHotBytes;
            ++hot;
        } else if (roll < p.pHot + p.pWarm) {
            base = wl::kWarmBase;
            span = wl::kWarmBytes;
            ++warm;
        } else {
            base = wl::kColdBase;
            span = wl::kColdBytes;
            ++cold;
        }
        if (lite_timing)
            continue;
        std::vector<std::uint64_t> chain;
        chain.reserve(p.chainDepth);
        for (std::uint32_t d = 0; d < p.chainDepth; ++d)
            chain.push_back(base + (rng.nextBounded(span) & ~63ULL));
        spec.chains.push_back(std::move(chain));
    }
    spec.shapeHint = hot | warm << 8 | cold << 16;
    if (lite_timing) {
        spec.liteChains = p.chains;
        spec.liteChainDepth = p.chainDepth;
    }
    return spec;
}

/**
 * The old GcWorkerProgram trace cluster: lite from the second
 * collection on when fast-forwarding, otherwise one chain of uniform
 * hops over the scanned nursery per trace chain.
 */
inline ReferenceCluster
referenceGcTraceCluster(std::uint32_t collections, std::uint64_t scan_base,
                        std::uint64_t scan_bytes, sim::Rng &rng,
                        bool lite_timing)
{
    using G = rt::GcWorkerProgram;
    ReferenceCluster spec;
    spec.overlapInstructions = G::kTraceOverlapInstructions;
    if (lite_timing && collections > 1) {
        spec.liteChains = G::kTraceChains;
        spec.liteChainDepth = G::kTraceChainDepth;
        return spec;
    }
    std::uint64_t span = std::max<std::uint64_t>(scan_bytes, 64);
    spec.chains.reserve(G::kTraceChains);
    for (std::uint32_t c = 0; c < G::kTraceChains; ++c) {
        std::vector<std::uint64_t> chain;
        chain.reserve(G::kTraceChainDepth);
        for (std::uint32_t d = 0; d < G::kTraceChainDepth; ++d) {
            std::uint64_t off = rng.nextBounded(span) & ~63ULL;
            chain.push_back(scan_base + off);
        }
        spec.chains.push_back(std::move(chain));
    }
    return spec;
}

} // namespace dvfs::test

#endif // DVFS_TESTS_REFERENCE_CLUSTER_GEN_HH
