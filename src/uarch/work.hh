/**
 * @file
 * Microarchitectural work-item descriptors.
 *
 * Thread programs (workloads, the garbage collector, runtime services)
 * describe what a thread does as a sequence of work items; the core
 * model turns each item into elapsed time and hardware-counter
 * updates. Items carry *logical* work (instruction counts, addresses)
 * only — never durations — so the identical item stream can be
 * executed at any DVFS setting.
 */

#ifndef DVFS_UARCH_WORK_HH
#define DVFS_UARCH_WORK_HH

#include <cstdint>
#include <span>
#include <vector>

#include "sim/log.hh"

namespace dvfs::uarch {

/**
 * Straight-line computation with good cache behaviour.
 *
 * @c l2Loads and @c l3Loads charge hit latencies in the private
 * (core-clock) and shared (uncore-clock) levels analytically; they
 * model the medium-locality accesses that are too frequent to walk
 * through the tag arrays one by one but too slow to fold into IPC.
 */
struct ComputeSpec {
    std::uint64_t instructions = 0;
    std::uint32_t l2Loads = 0;   ///< loads hitting the private L2
    std::uint32_t l3Loads = 0;   ///< loads hitting the shared L3
    double ipcScale = 1.0;       ///< per-phase IPC multiplier (JIT plan)
};

/**
 * A cluster of potentially long-latency loads.
 *
 * The cluster consists of one or more dependence chains; loads within
 * a chain are address-dependent (each issues when its predecessor's
 * data returns), chains are mutually independent and overlap (MLP).
 * @c overlapInstructions is the independent work the out-of-order
 * window can retire underneath the cluster.
 *
 * A spec owns no memory (40 bytes, trivially copyable), so actions
 * carrying one copy without heap traffic. A full spec points at its
 * addresses, which live in a ClusterAddressBuffer owned by the
 * program that produced the spec.
 *
 * Address lifetime: a full spec's addresses are valid until the
 * producing program's next ThreadProgram::next() call, which rewrites
 * its buffer in place. The OS consumes every full spec before then:
 * executeDetailed runs CoreModel::executeCluster synchronously, and a
 * fast-forward lump's unchargeable tail waits in Thread::ffPending
 * while its thread is busy, so nothing pulls from that program until
 * the tail has executed. Code that keeps a spec across pulls (tests
 * draining a program into a list, say) must copy the addresses out
 * first.
 */
struct MissClusterSpec {
    /**
     * Full spec: every load address, chain-major (chain 0's hops in
     * issue order, then chain 1's, ...). Not owned; see above.
     */
    const std::uint64_t *addrs = nullptr;

    /**
     * Full spec: exclusive end offset of each chain in @c addrs, so
     * chain c is [chainEnds[c-1], chainEnds[c]) (chain 0 starts at 0).
     * Chains may differ in length. Not owned; same lifetime as
     * @c addrs.
     */
    const std::uint32_t *chainEnds = nullptr;

    std::uint64_t overlapInstructions = 0;

    /**
     * Opaque shape-classification key provided by the generator
     * (e.g. the hot/warm/cold region mix of the chains). The core
     * model ignores it; the fast-path model (fastpath.hh) uses it to
     * separate clusters whose load counts match but whose latency
     * distributions do not.
     */
    std::uint32_t shapeHint = 0;

    /** Full spec: number of chains in @c chainEnds. */
    std::uint32_t chains = 0;

    /**
     * Lite descriptor, produced instead of addresses when a program is
     * asked for a fast-forward action (ThreadContext::liteTiming): the
     * generator makes the draws that pick the shape key but
     * materialises no addresses. Lite specs can only be charged
     * analytically, never executed by the detailed core model.
     */
    std::uint32_t liteChains = 0;
    std::uint32_t liteChainDepth = 0;

    /** True if this is an address-free lite descriptor. */
    bool lite() const { return liteChains != 0; }

    /** Addresses of chain @p c of a full spec, in issue order. */
    std::span<const std::uint64_t>
    chain(std::uint32_t c) const
    {
        const std::uint32_t begin = c == 0 ? 0 : chainEnds[c - 1];
        return {addrs + begin, addrs + chainEnds[c]};
    }

    /** Total loads, for either representation. */
    std::uint32_t
    loadCount() const
    {
        if (lite())
            return liteChains * liteChainDepth;
        return chains == 0 ? 0 : chainEnds[chains - 1];
    }
};

/**
 * Producer-owned storage behind full MissClusterSpecs: @p chains chains
 * of @p depth addresses, chain-major, plus each chain's end offset. A
 * program sizes it once and rewrites the addresses in place for every
 * cluster, so building a full spec allocates nothing; spec() hands out
 * a view that stays valid until the next rewrite (the lifetime rule
 * above).
 */
class ClusterAddressBuffer
{
  public:
    ClusterAddressBuffer(std::uint32_t chains, std::uint32_t depth)
        : _addrs(static_cast<std::size_t>(chains) * depth),
          _chainEnds(chains)
    {
        for (std::uint32_t c = 0; c < chains; ++c)
            _chainEnds[c] = (c + 1) * depth;
    }

    /** Write access to chain @p c's addresses. */
    std::uint64_t *
    chain(std::uint32_t c)
    {
        DVFS_ASSERT(c < _chainEnds.size(), "cluster chain out of range");
        return _addrs.data() + (c == 0 ? 0 : _chainEnds[c - 1]);
    }

    /** A full spec over the current addresses. */
    MissClusterSpec
    spec(std::uint64_t overlap_instructions,
         std::uint32_t shape_hint = 0) const
    {
        MissClusterSpec s;
        s.addrs = _addrs.data();
        s.chainEnds = _chainEnds.data();
        s.chains = static_cast<std::uint32_t>(_chainEnds.size());
        s.overlapInstructions = overlap_instructions;
        s.shapeHint = shape_hint;
        return s;
    }

  private:
    std::vector<std::uint64_t> _addrs;
    std::vector<std::uint32_t> _chainEnds;
};

/**
 * A burst of stores to consecutive cache lines (zero-initialisation of
 * freshly allocated memory, or GC copying).
 *
 * The default of two stores per line models the 32-byte vector stores
 * runtimes use for bulk zeroing and copying; scalar code would use
 * eight. The choice sets the dispatch-side cost of a burst — with wide
 * stores, bursts are drain-limited at every DVFS setting, which is
 * what makes their duration (mostly) non-scaling.
 */
struct StoreBurstSpec {
    std::uint64_t baseAddr = 0;
    std::uint32_t lines = 0;
    std::uint32_t storesPerLine = 2;  ///< 32-byte stores filling a line
};

} // namespace dvfs::uarch

#endif // DVFS_UARCH_WORK_HH
