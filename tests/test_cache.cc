/**
 * @file
 * Unit tests for the cache and cache-hierarchy models.
 */

#include <gtest/gtest.h>

#include <tuple>
#include <utility>

#include "uarch/cache.hh"
#include "uarch/core.hh"

using namespace dvfs;
using namespace dvfs::uarch;

namespace {

CacheConfig
tinyCache()
{
    // 4 sets x 2 ways x 64 B lines = 512 B.
    return CacheConfig{512, 2, 64, 2};
}

} // namespace

TEST(Cache, MissThenHit)
{
    Cache c("t", tinyCache());
    EXPECT_FALSE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.probe(0x1000));
    EXPECT_FALSE(c.probe(0x2000));
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, SameLineDifferentByteOffsets)
{
    Cache c("t", tinyCache());
    c.access(0x1000, false);
    EXPECT_TRUE(c.access(0x1037, false).hit);  // same 64B line
    EXPECT_FALSE(c.access(0x1040, false).hit); // next line
}

TEST(Cache, LruEvictsOldest)
{
    Cache c("t", tinyCache());
    // Three lines mapping to the same set (set stride = 4 lines).
    std::uint64_t a = 0, b = 4 * 64, d = 8 * 64;
    c.access(a, false);
    c.access(b, false);
    c.access(a, false);        // refresh a; b is now LRU
    auto r = c.access(d, false);
    EXPECT_FALSE(r.hit);
    EXPECT_TRUE(c.probe(a));
    EXPECT_FALSE(c.probe(b));  // evicted
    EXPECT_TRUE(c.probe(d));
}

TEST(Cache, DirtyEvictionReportsWriteback)
{
    Cache c("t", tinyCache());
    std::uint64_t a = 0, b = 4 * 64, d = 8 * 64;
    c.access(a, true);   // dirty
    c.access(b, false);
    auto r = c.access(d, false);  // evicts a (LRU)
    ASSERT_TRUE(r.dirtyVictim);
    EXPECT_FALSE(r.cleanVictim);
    EXPECT_EQ(r.victim, a);
    EXPECT_EQ(c.writebacks(), 1u);
}

TEST(Cache, CleanEvictionHasNoWriteback)
{
    Cache c("t", tinyCache());
    std::uint64_t a = 0, b = 4 * 64, d = 8 * 64;
    c.access(a, false);
    c.access(b, false);
    auto r = c.access(d, false);
    EXPECT_FALSE(r.dirtyVictim);
    EXPECT_TRUE(r.cleanVictim);
    EXPECT_EQ(r.victim, a);
    EXPECT_EQ(c.writebacks(), 0u);
}

TEST(Cache, DirtyBitSticksAcrossHits)
{
    Cache c("t", tinyCache());
    std::uint64_t a = 0, b = 4 * 64, d = 8 * 64;
    c.access(a, true);
    c.access(a, false);  // read hit must not clear dirty
    c.access(b, false);
    c.access(a, false);  // refresh a; b LRU
    auto r = c.access(d, false);
    EXPECT_FALSE(r.dirtyVictim);  // b was clean
    auto r2 = c.access(b, false); // evicts a or d
    // a is dirty; if a is the victim we must see its writeback.
    if (r2.dirtyVictim) {
        EXPECT_EQ(r2.victim, a);
    }
}

TEST(Cache, ColdFillsReportNoVictimUntilTheSetIsFull)
{
    Cache c("t", tinyCache());
    std::uint64_t a = 0, b = 4 * 64, d = 8 * 64;
    for (std::uint64_t line : {a, b}) {
        auto r = c.access(line, true);
        EXPECT_FALSE(r.hit);
        EXPECT_FALSE(r.dirtyVictim);
        EXPECT_FALSE(r.cleanVictim);
    }
    auto r = c.access(d, true);  // third line in a 2-way set
    EXPECT_TRUE(r.dirtyVictim);
    EXPECT_EQ(r.victim, a);
    // After a reset the set fills from its first way again.
    c.reset();
    r = c.access(d, false);
    EXPECT_FALSE(r.dirtyVictim);
    EXPECT_FALSE(r.cleanVictim);
    EXPECT_TRUE(c.access(d, false).hit);
}

TEST(Cache, ResetDropsContents)
{
    Cache c("t", tinyCache());
    c.access(0x40, true);
    c.reset();
    EXPECT_FALSE(c.probe(0x40));
    EXPECT_EQ(c.hits(), 0u);
}

TEST(CacheDeathTest, RejectsBadGeometry)
{
    EXPECT_EXIT(Cache("x", CacheConfig{512, 3, 64, 1}),
                ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT(Cache("x", CacheConfig{512, 2, 48, 1}),
                ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT(Cache("x", CacheConfig{512, 0, 64, 1}),
                ::testing::ExitedWithCode(1), "");
}

// ------------------------------------------------------------------
// Hierarchy

class HierarchyTest : public ::testing::Test
{
  protected:
    HierarchyTest()
        : uncore("uncore", Frequency::mhz(1500)),
          coreDomain("core", Frequency::ghz(1.0)),
          mem(2, HierarchyConfig{}, dram, uncore)
    {
    }

    Dram dram;
    FreqDomain uncore;
    FreqDomain coreDomain;  ///< clocks store bursts, at f1
    CacheHierarchy mem;
    Frequency f1 = Frequency::ghz(1.0);
    Frequency f4 = Frequency::ghz(4.0);
};

TEST_F(HierarchyTest, ColdLoadGoesToDram)
{
    auto out = mem.load(0, 0x10000, 0, f1);
    EXPECT_EQ(out.level, HitLevel::Dram);
    EXPECT_GT(out.memLatency, mem.l3HitTicks());
}

TEST_F(HierarchyTest, SecondLoadHitsL1)
{
    mem.load(0, 0x10000, 0, f1);
    auto out = mem.load(0, 0x10000, 1000, f1);
    EXPECT_EQ(out.level, HitLevel::L1);
    EXPECT_EQ(out.memLatency, 0u);
    EXPECT_EQ(out.completion, 1000u);
}

TEST_F(HierarchyTest, OtherCoreHitsSharedL3)
{
    mem.load(0, 0x10000, 0, f1);
    auto out = mem.load(1, 0x10000, 1000, f1);
    EXPECT_EQ(out.level, HitLevel::L3);
    EXPECT_EQ(out.memLatency,
              mem.l2HitTicks(f1) + mem.l3HitTicks());
}

TEST_F(HierarchyTest, L2HitLatencyScalesWithCoreClock)
{
    EXPECT_EQ(mem.l2HitTicks(f1), 4 * mem.l2HitTicks(f4));
}

TEST_F(HierarchyTest, L3HitLatencyIsFrequencyInvariant)
{
    Tick l3 = mem.l3HitTicks();
    // 40 uncore cycles at 1.5 GHz = 26.67 ns, independent of core f.
    EXPECT_NEAR(ticksToNs(l3), 40.0 / 1.5, 0.01);
}

TEST_F(HierarchyTest, L1EvictionFallsToL2)
{
    // Fill one L1 set (4 ways; set stride = 128 lines for 32KB/4-way).
    const std::uint64_t stride = 128 * 64;
    for (int i = 0; i < 5; ++i)
        mem.load(0, 0x100000 + static_cast<std::uint64_t>(i) * stride, 0,
                 f1);
    // The first line left L1 but must still be in L2.
    auto out = mem.load(0, 0x100000, 50000, f1);
    EXPECT_EQ(out.level, HitLevel::L2);
}

TEST_F(HierarchyTest, StoreLineOnChipDrainsInstantly)
{
    // Bring eight lines on chip, then store to them through a core
    // whose SQ holds a single line's stores: on-chip lines release
    // their entries at once, so nothing waits and the write port never
    // sees them.
    for (std::uint64_t i = 0; i < 8; ++i)
        mem.load(0, 0x20000 + 64 * i, 0, f1);
    CoreConfig cc;
    cc.sqEntries = 2;
    CoreModel core(0, cc, mem, coreDomain);
    PerfCounters pc;
    Tick end = core.executeStoreBurst(StoreBurstSpec{0x20000, 8, 2}, 1000,
                                      pc);
    EXPECT_EQ(end, 1000 + 8 * f1.cyclesToTicks(2.0));
    EXPECT_EQ(pc.sqFullTime, 0u);
    EXPECT_EQ(mem.writePort(0), 0u);
}

TEST_F(HierarchyTest, StoreMissesDrainAtWritePortRate)
{
    // Cold lines: each drain advances the per-core write port by one
    // service time from where it stood.
    CoreModel core(0, CoreConfig{}, mem, coreDomain);
    PerfCounters pc;
    const Tick dispatch = f1.cyclesToTicks(2.0);
    const Tick service = nsToTicks(mem.config().writeDrainNs);
    core.executeStoreBurst(StoreBurstSpec{0x1000000, 1, 2}, 0, pc);
    EXPECT_EQ(mem.writePort(0), dispatch + service);
    core.executeStoreBurst(StoreBurstSpec{0x1000040, 1, 2}, 0, pc);
    EXPECT_EQ(mem.writePort(0), dispatch + 2 * service);
}

TEST_F(HierarchyTest, WritePortsArePerCore)
{
    CoreModel c0(0, CoreConfig{}, mem, coreDomain);
    CoreModel c1(1, CoreConfig{}, mem, coreDomain);
    PerfCounters pc;
    c0.executeStoreBurst(StoreBurstSpec{0x2000000, 1, 2}, 0, pc);
    c1.executeStoreBurst(StoreBurstSpec{0x3000000, 1, 2}, 0, pc);
    // Independent ports: no cross-core stacking.
    EXPECT_EQ(mem.writePort(0), mem.writePort(1));
    EXPECT_EQ(mem.writePort(0),
              f1.cyclesToTicks(2.0) + nsToTicks(mem.config().writeDrainNs));
}

namespace {

/**
 * Drive one machine with one-line L1/L2 and a one-set, two-way L3
 * into the state where core 0 holds dirty D1 in L1 and dirty D2 in
 * L2, D2 has left the L3, and the L3 holds dirty V (LRU) and X (MRU).
 * Core 0's next access to X then pushes D1 into L2, D2 into L3, and
 * D2's install evicts the dirty V. @return DRAM writes and L3
 * writebacks after that access, relative to before it.
 */
std::pair<std::uint64_t, std::uint64_t>
victimChain(bool store)
{
    HierarchyConfig h;
    h.l1d = CacheConfig{64, 1, 64, 2};
    h.l2 = CacheConfig{64, 1, 64, 11};
    h.l3 = CacheConfig{128, 2, 64, 40};
    Dram dram;
    FreqDomain uncore("uncore", Frequency::mhz(1500));
    FreqDomain domain("core", Frequency::ghz(1.0));
    CacheHierarchy mem(2, h, dram, uncore);
    CoreModel c0(0, CoreConfig{}, mem, domain);
    CoreModel c1(1, CoreConfig{}, mem, domain);
    const std::uint64_t d2 = 0x10000, d1 = 0x20000, v = 0x30000,
                        x = 0x40000;
    PerfCounters pc;
    c0.executeStoreBurst(StoreBurstSpec{d2, 1, 2}, 0, pc);
    c0.executeStoreBurst(StoreBurstSpec{d1, 1, 2}, 1000, pc);
    c1.executeStoreBurst(StoreBurstSpec{v, 1, 2}, 2000, pc);  // evicts D2
    mem.load(1, x, 3000, domain.frequency());                  // X is MRU
    EXPECT_TRUE(mem.l3().probe(v));
    EXPECT_TRUE(mem.l3().probe(x));
    EXPECT_FALSE(mem.l3().probe(d2));

    const std::uint64_t writes = dram.writes();
    const std::uint64_t wbs = mem.l3().writebacks();
    if (store)
        c0.executeStoreBurst(StoreBurstSpec{x, 1, 2}, 10000, pc);
    else
        mem.load(0, x, 10000, domain.frequency());
    EXPECT_FALSE(mem.l3().probe(v));  // V was evicted either way
    EXPECT_TRUE(mem.l3().probe(x));   // and X hit in L3
    return {dram.writes() - writes, mem.l3().writebacks() - wbs};
}

} // namespace

TEST(StorePath, L2VictimEvictingDirtyL3LineIsNotWrittenToDram)
{
    // The store path counts the dirty L3 victim of an L2 victim's
    // install as a writeback but never writes it to DRAM. Every pinned
    // digest includes this; writing it would be a deliberate re-pin.
    auto [writes, wbs] = victimChain(true);
    EXPECT_EQ(wbs, 1u);
    EXPECT_EQ(writes, 0u);
    // load() on the same chain writes every dirty L3 victim, V's
    // included (its own L2 miss then evicts one more).
    std::tie(writes, wbs) = victimChain(false);
    EXPECT_EQ(wbs, 2u);
    EXPECT_EQ(writes, wbs);
}

TEST_F(HierarchyTest, ResetRestoresColdState)
{
    mem.load(0, 0x10000, 0, f1);
    mem.reset();
    auto out = mem.load(0, 0x10000, 0, f1);
    EXPECT_EQ(out.level, HitLevel::Dram);
}
