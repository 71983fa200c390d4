/**
 * @file
 * Differential test: the production store path (one tag walk per
 * burst inside CoreModel::executeStoreBurst, over a fixed store-queue
 * ring) against the per-line reference walk in
 * tests/reference_store_walk.hh.
 *
 * Two identical machines run the same seeded script: store bursts of
 * 0-300 lines from cores 0-3 at overlapping and set-wrapping
 * addresses with 1-4 stores per line, loads between them, DVFS
 * changes, and (with the warm overlay on) fast-forwarded burst
 * footprints. Cores have store queues from 0 to 42 entries, so
 * SQ-full stalls with fewer entries than a line's stores are covered.
 * Every returned tick and load outcome must match step by step; at
 * the end the counters, every cache's hit/miss/writeback stats, the
 * residency of every touched line, the write ports and the DRAM
 * traffic must match, and trailing DRAM reads must see the same
 * latencies — which makes the order and ticks of every DRAM write
 * visible.
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "reference_store_walk.hh"
#include "sim/rng.hh"
#include "uarch/core.hh"

using namespace dvfs;
using namespace dvfs::uarch;

namespace {

constexpr std::uint32_t kCores = 4;

/** Store-queue sizes per core: default, below and at the line stores. */
constexpr std::uint32_t kSqEntries[kCores] = {42, 1, 3, 0};

/** A small hierarchy whose sets fill and evict within a short script. */
HierarchyConfig
tinyHierarchy()
{
    HierarchyConfig h;
    h.l1d = CacheConfig{2 * 1024, 4, 64, 2};
    h.l2 = CacheConfig{8 * 1024, 8, 64, 11};
    h.l3 = CacheConfig{64 * 1024, 16, 64, 40};
    return h;
}

CoreConfig
coreConfig(std::uint32_t core)
{
    CoreConfig cc;
    cc.sqEntries = kSqEntries[core];
    return cc;
}

/** One machine: production cores and reference cores share nothing. */
template <class CoreT>
struct Machine {
    Machine(const HierarchyConfig &h, bool warm)
        : coreDomain("core", Frequency::ghz(2.0)),
          uncore("uncore", Frequency::mhz(1500)),
          mem(kCores, h, dram, uncore)
    {
        if (warm)
            mem.enableWarmOverlay();
        for (std::uint32_t c = 0; c < kCores; ++c)
            cores.push_back(std::make_unique<CoreT>(c, coreConfig(c), mem,
                                                    coreDomain));
        pcs.resize(kCores);
    }

    FreqDomain coreDomain;
    FreqDomain uncore;
    Dram dram;
    CacheHierarchy mem;
    std::vector<std::unique_ptr<CoreT>> cores;
    std::vector<PerfCounters> pcs;
};

void
expectCountersEq(const PerfCounters &a, const PerfCounters &b,
                 const std::string &where)
{
    EXPECT_EQ(a.words(), b.words()) << where;
}

void
expectCacheEq(const Cache &a, const Cache &b)
{
    EXPECT_EQ(a.hits(), b.hits()) << a.name();
    EXPECT_EQ(a.misses(), b.misses()) << a.name();
    EXPECT_EQ(a.writebacks(), b.writebacks()) << a.name();
}

using Param = std::tuple<bool /*warm*/, bool /*tiny*/, std::uint64_t>;

class StoreBurstDifferential : public ::testing::TestWithParam<Param>
{
};

} // namespace

TEST_P(StoreBurstDifferential, MatchesPerLineReferenceWalk)
{
    const auto [warm, tiny, seed] = GetParam();
    const HierarchyConfig h = tiny ? tinyHierarchy() : HierarchyConfig{};
    Machine<CoreModel> prod(h, warm);
    Machine<ReferenceStoreCore> ref(h, warm);

    // Bursts land in a region a few L3 capacities wide, so the script
    // evicts dirty lines at every level. One in four starts just
    // before an L3 set-index wrap.
    const std::uint64_t region = 0x1'0000'0000ULL;
    const std::uint64_t span = 4ULL * h.l3.sizeBytes;
    const std::uint64_t l3_wrap =
        static_cast<std::uint64_t>(h.l3.sizeBytes) / h.l3.assoc;

    sim::Rng rng(seed);
    std::set<std::uint64_t> touched;
    std::vector<Tick> ready(kCores, 0);
    Tick clock = 0;
    std::uint64_t sq_full_total = 0;

    for (int step = 0; step < 1500; ++step) {
        const std::string where = "step " + std::to_string(step);
        const auto core = static_cast<std::uint32_t>(rng.nextBounded(kCores));
        clock += rng.nextBounded(4000);
        const Tick start = std::max(clock, ready[core]);
        const std::uint64_t op = rng.nextBounded(100);

        if (op < 60) {
            StoreBurstSpec spec;
            spec.lines = static_cast<std::uint32_t>(rng.nextBounded(301));
            spec.storesPerLine =
                static_cast<std::uint32_t>(rng.nextRange(1, 4));
            std::uint64_t base = region + (rng.nextBounded(span) & ~63ULL);
            if (rng.nextBool(0.25))
                base = region + rng.nextBounded(8) * l3_wrap -
                       rng.nextBounded(64) * 64;
            spec.baseAddr = base;
            PerfCounters a, b;
            const Tick ta = prod.cores[core]->executeStoreBurst(spec, start, a);
            const Tick tb = ref.cores[core]->executeStoreBurst(spec, start, b);
            ASSERT_EQ(ta, tb) << where;
            expectCountersEq(a, b, where);
            prod.pcs[core] += a;
            ref.pcs[core] += b;
            sq_full_total += a.sqFullTime;
            ready[core] = ta;
            for (std::uint32_t i = 0; i < spec.lines; ++i)
                touched.insert(base + 64ULL * i);
        } else if (op < 90) {
            // A load of a recently stored line or of a random one.
            std::uint64_t addr = region + (rng.nextBounded(span) & ~63ULL);
            if (rng.nextBool(0.5) && !touched.empty()) {
                auto it = touched.lower_bound(addr);
                addr = it == touched.end() ? *touched.begin() : *it;
            }
            const Frequency f = prod.coreDomain.frequency();
            const auto la = prod.mem.load(core, addr, start, f);
            const auto lb = ref.mem.load(core, addr, start, f);
            ASSERT_EQ(la.level, lb.level) << where;
            ASSERT_EQ(la.completion, lb.completion) << where;
            ASSERT_EQ(la.memLatency, lb.memLatency) << where;
            ready[core] = la.completion;
            touched.insert(addr & ~63ULL);
        } else if (op < 95) {
            const Frequency f =
                Frequency::mhz(1000 * static_cast<std::uint32_t>(
                                          rng.nextRange(1, 4)));
            prod.coreDomain.setFrequency(f, clock);
            ref.coreDomain.setFrequency(f, clock);
        } else {
            // A fast-forwarded burst's footprint (no-op when the
            // overlay is off).
            const std::uint64_t base =
                region + (rng.nextBounded(span) & ~63ULL);
            const auto lines =
                static_cast<std::uint32_t>(rng.nextRange(1, 2000));
            prod.mem.warmLines(base, lines);
            ref.mem.warmLines(base, lines);
        }
    }

    for (std::uint32_t c = 0; c < kCores; ++c) {
        expectCountersEq(prod.pcs[c], ref.pcs[c],
                         "core " + std::to_string(c));
        expectCacheEq(prod.mem.l1d(c), ref.mem.l1d(c));
        expectCacheEq(prod.mem.l2(c), ref.mem.l2(c));
        EXPECT_EQ(prod.mem.writePort(c), ref.mem.writePort(c));
    }
    expectCacheEq(prod.mem.l3(), ref.mem.l3());
    std::size_t resident = 0;
    for (std::uint64_t line : touched) {
        for (std::uint32_t c = 0; c < kCores; ++c) {
            ASSERT_EQ(prod.mem.l1d(c).probe(line), ref.mem.l1d(c).probe(line));
            ASSERT_EQ(prod.mem.l2(c).probe(line), ref.mem.l2(c).probe(line));
        }
        ASSERT_EQ(prod.mem.l3().probe(line), ref.mem.l3().probe(line));
        resident += prod.mem.l3().probe(line);
    }
    EXPECT_EQ(prod.mem.warmHits(), ref.mem.warmHits());

    EXPECT_EQ(prod.dram.writes(), ref.dram.writes());
    EXPECT_EQ(prod.dram.reads(), ref.dram.reads());
    EXPECT_EQ(prod.dram.meanWriteLatencyNs(), ref.dram.meanWriteLatencyNs());
    EXPECT_EQ(prod.dram.rowHits(), ref.dram.rowHits());
    EXPECT_EQ(prod.dram.rowMisses(), ref.dram.rowMisses());
    // Trailing reads over every bank: their latencies depend on the
    // open rows and busy horizons the DRAM writes left behind.
    Tick t = clock;
    for (std::uint64_t i = 0; i < 256; ++i) {
        const std::uint64_t addr = region + i * 4096 + (i % 7) * 64;
        ASSERT_EQ(prod.dram.read(addr, t), ref.dram.read(addr, t)) << i;
        t += 50;
    }

    // The script must reach the paths it claims to cover.
    EXPECT_GT(prod.dram.writes(), 0u);
    EXPECT_GT(sq_full_total, 0u);
    EXPECT_GT(prod.mem.l3().writebacks(), 0u);
    EXPECT_GT(resident, 0u);
    if (warm) {
        EXPECT_GT(prod.mem.warmHits(), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Scripts, StoreBurstDifferential,
    ::testing::Combine(::testing::Bool(), ::testing::Bool(),
                       ::testing::Values<std::uint64_t>(1, 2)),
    [](const ::testing::TestParamInfo<Param> &info) {
        return std::string(std::get<0>(info.param) ? "Warm" : "Cold") +
               (std::get<1>(info.param) ? "Tiny" : "Default") + "Seed" +
               std::to_string(std::get<2>(info.param));
    });
