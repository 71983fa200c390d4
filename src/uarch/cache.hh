/**
 * @file
 * Set-associative cache hierarchy: private L1D/L2 per core, shared L3.
 *
 * The hierarchy classifies every data access issued by the core model
 * and composes latencies from three regimes:
 *
 *  - L1 hits are folded into the core's base IPC (zero extra cost),
 *  - L2 hits cost cycles in the *core* clock domain (they scale with
 *    the DVFS frequency),
 *  - L3 hits cost cycles in the fixed 1.5 GHz *uncore* domain
 *    (Table II), i.e. wall-clock-constant time, and
 *  - misses go to the DRAM model.
 *
 * This split matters: CRIT-style predictors only treat DRAM time as
 * non-scaling, so the fixed-clock L3 component is a built-in source of
 * honest prediction error, as on real hardware.
 *
 * The model tracks tags and dirtiness only (no data), with true LRU
 * replacement. There is no coherence protocol: the workloads
 * communicate through synchronization costs modelled separately (see
 * CoreModel::atomicRmw), and no data values flow through the caches.
 *
 * Loads walk the hierarchy through CacheHierarchy::load. Store bursts
 * walk it in CoreModel::executeStoreBurst, one walk per burst over
 * the hierarchy's store-path hooks; that loop is the only store path.
 */

#ifndef DVFS_UARCH_CACHE_HH
#define DVFS_UARCH_CACHE_HH

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/log.hh"
#include "sim/time.hh"
#include "uarch/dram.hh"
#include "uarch/freq_domain.hh"

namespace dvfs::uarch {

/** Where in the hierarchy an access was satisfied. */
enum class HitLevel {
    L1,    ///< private L1 data cache
    L2,    ///< private unified L2
    L3,    ///< shared last-level cache (uncore clock)
    Dram,  ///< memory
};

/** Printable name of a hit level. */
const char *hitLevelName(HitLevel level);

/** Geometry and timing of one cache level. */
struct CacheConfig {
    std::uint32_t sizeBytes = 32 * 1024;
    std::uint32_t assoc = 4;
    std::uint32_t lineBytes = 64;
    std::uint32_t latencyCycles = 2;  ///< access latency, in its domain
};

/**
 * One physical cache: a tag array with true-LRU replacement.
 *
 * Ways fill lowest index first and only reset() invalidates them, so
 * the invalid ways of a set are always a suffix and a set is full
 * exactly when its last way is valid. access() relies on this to skip
 * the invalid-way scan on a full set.
 */
class Cache
{
  public:
    /**
     * Result of a lookup-with-allocate. Plain fields rather than
     * optionals: a miss sets at most one of the two victim flags, and
     * @c victim is meaningful only when one of them is set.
     */
    struct Result {
        bool hit = false;
        /** The fill evicted a dirty line: a writeback of @c victim. */
        bool dirtyVictim = false;
        /**
         * The fill evicted a *clean* line. Exact-mode walks ignore it;
         * the hierarchy's warm overlay consults it to restore the
         * writeback a fast-forwarded burst's dirty install would have
         * produced.
         */
        bool cleanVictim = false;
        std::uint64_t victim = 0;  ///< evicted line's byte address
    };

    Cache(std::string name, const CacheConfig &cfg);

    /**
     * Probe for @p addr; on miss, allocate the line (evicting LRU).
     *
     * Defined inline below the class: the hierarchy calls this for
     * every load and store on the simulator's hottest path, and
     * inlining it into CacheHierarchy::load and
     * CoreModel::executeStoreBurst is a measurable win.
     *
     * @param addr  Byte address.
     * @param dirty Mark the (new or existing) line dirty.
     */
    Result access(std::uint64_t addr, bool dirty);

    /** Probe without modifying any state. */
    bool probe(std::uint64_t addr) const;

    /** Drop all lines (between runs). */
    void reset();

    const CacheConfig &config() const { return _cfg; }
    const std::string &name() const { return _name; }

    std::uint64_t hits() const { return _hits; }
    std::uint64_t misses() const { return _misses; }
    std::uint64_t writebacks() const { return _writebacks; }

  private:
    /// @name Packed way metadata
    /// A way's {tag, valid, dirty} live in one 32-bit word: tag << 2
    /// | dirty << 1 | valid. A hit test is then a single compare per
    /// way against the wanted word with the dirty bit forced on, and
    /// the tag array for a whole set is dense — an L3 set's 16 tags
    /// span one host cache line instead of six with the old
    /// {tag, lru, valid, dirty} struct. Simulated addresses are
    /// region-based (src/wl/params.hh, heaps at 0x1-0x2'0000'0000 and
    /// regions up to 0x5'0000'0000 + 256 MB, so < 2^35) and the
    /// smallest index width leaves tags under 23 bits; access()
    /// guards the 30-bit packing limit.
    /// @{
    static constexpr std::uint32_t kWayValid = 1;
    static constexpr std::uint32_t kWayDirty = 2;
    static constexpr unsigned kWayTagShift = 2;
    /// @}

    /**
     * Move way @p w to the most-recent position of a set's recency
     * word. The word is a base-16 permutation: nibble 0 holds the
     * most recently touched way index, nibble assoc-1 the least
     * recent.
     *
     * No loop finds w: x has a zero nibble exactly where ord holds w,
     * and the has-zero-nibble trick flags the lowest zero nibble
     * exactly (a borrow can only raise false flags above a true zero).
     * Nibbles past assoc-1 are zero, so a search for way 0 may match
     * there too, but only above its real position. The double shifts
     * keep the position-15 case (shift by 60+4) well-defined, and at
     * position 0 the rotate leaves the word unchanged.
     */
    static void
    touchWay(std::uint64_t &ord, std::uint32_t w)
    {
        constexpr std::uint64_t kOnes = 0x1111111111111111ULL;
        const std::uint64_t x = ord ^ (kOnes * w);
        const std::uint64_t zero = (x - kOnes) & ~x & (kOnes << 3);
        const unsigned sh =
            static_cast<unsigned>(std::countr_zero(zero)) & ~3u;
        const std::uint64_t low = ord & ((std::uint64_t{1} << sh) - 1);
        const std::uint64_t high = (ord >> sh >> 4) << sh << 4;
        ord = high | (low << 4) | w;
    }

    /** Identity recency word: nibble i = i for i < assoc. */
    static std::uint64_t
    identityOrder(std::uint32_t assoc)
    {
        std::uint64_t ord = 0;
        for (std::uint32_t i = 0; i < assoc; ++i)
            ord |= static_cast<std::uint64_t>(i) << (4 * i);
        return ord;
    }

    /** access() body, specialized on a compile-time associativity
     *  (0 = runtime _cfg.assoc). */
    template <std::uint32_t A>
    Result accessWays(std::uint64_t addr, bool dirty);

    std::uint32_t setIndex(std::uint64_t addr) const
    {
        return static_cast<std::uint32_t>((addr >> _lineShift) &
                                          (_numSets - 1));
    }

    std::uint64_t tagOf(std::uint64_t addr) const
    {
        return (addr >> _lineShift) >> _setBits;
    }

    std::uint64_t lineAddr(std::uint64_t tag, std::uint32_t set) const
    {
        return ((tag << _setBits) | set) << _lineShift;
    }

    std::string _name;
    CacheConfig _cfg;
    std::uint32_t _numSets;
    std::uint32_t _lineShift;  ///< log2(lineBytes)
    std::uint32_t _setBits;    ///< log2(_numSets)
    std::vector<std::uint32_t> _meta;  ///< _numSets * assoc, set-major
    /**
     * Per-set true-LRU recency as a nibble permutation (touchWay).
     * Replaces per-way last-touch stamps: victim selection reads one
     * nibble instead of scanning an assoc-sized stamp array, hits
     * update one word, and the MRU fast path (which by definition
     * touches the way already at nibble 0) updates nothing at all.
     * Selection is bit-identical to stamp LRU: both implement exact
     * least-recently-touched with the first invalid way preferred.
     *
     * Nibble 0 is the set's most-recently-touched way, and lookups
     * probe it before scanning the set: locality makes repeat hits to
     * the same line the common case, and the probe is one compare.
     * A lookup thus touches two host cache lines: the set's tags and
     * this word, which every other path needs anyway.
     */
    std::vector<std::uint64_t> _order;

    std::uint64_t _hits = 0, _misses = 0, _writebacks = 0;
};

template <std::uint32_t A>
inline Cache::Result
Cache::accessWays(std::uint64_t addr, bool dirty)
{
    // A is the compile-time associativity (0 = use the runtime
    // config): the scans below get constant trip counts for the
    // standard 4/8/16-way geometries, which lets the compiler unroll
    // and vectorize them.
    const std::uint32_t assoc = A ? A : _cfg.assoc;
    const std::uint32_t set = setIndex(addr);
    const std::uint64_t tag64 = tagOf(addr);
    DVFS_ASSERT(tag64 >> (32 - kWayTagShift) == 0,
                "address tag overflows the packed way word");
    const std::uint32_t tag = static_cast<std::uint32_t>(tag64);
    std::uint32_t *meta =
        _meta.data() + static_cast<std::size_t>(set) * assoc;
    // A hit is (valid && tag match) regardless of dirtiness; forcing
    // the dirty bit on in both operands makes that one compare.
    const std::uint32_t want = (tag << kWayTagShift) | kWayDirty | kWayValid;
    const std::uint32_t mark = dirty ? kWayDirty : 0;

    // Fast path: the set's most-recently-touched way. It already
    // holds recency nibble 0, so the order word needs no update.
    {
        const std::uint32_t m = static_cast<std::uint32_t>(_order[set] & 0xF);
        if ((meta[m] | kWayDirty) == want) {
            meta[m] |= mark;
            ++_hits;
            return Result{true};
        }
    }

    // Hit scan first, victim selection only on a miss: hits (the
    // common case) pay one word compare per way and nothing else, and
    // the miss path re-reads set-local data already in the host L1.
    // The scan is branchless and fully unrolled for the templated
    // geometries — at most one way can hold a tag, so reducing the
    // compares into a bitmask and taking the lowest set bit finds the
    // same way an early-exit loop would.
    std::uint32_t hit_mask = 0;
#pragma GCC unroll 16
    for (std::uint32_t w = 0; w < assoc; ++w)
        hit_mask |=
            static_cast<std::uint32_t>((meta[w] | kWayDirty) == want) << w;
    if (hit_mask) {
        const std::uint32_t w =
            static_cast<std::uint32_t>(std::countr_zero(hit_mask));
        meta[w] |= mark;
        touchWay(_order[set], w);
        ++_hits;
        return Result{true};
    }

    ++_misses;
    // Selection is identical to the classic stamp-per-way loop: the
    // first invalid way wins, else the least recently touched way.
    // Invariant: a set's invalid ways are always a suffix. Fills take
    // the lowest-index invalid way and only reset() invalidates, so
    // the set is full exactly when its last way is valid — and once
    // full (forever after its first assoc fills) no miss scans for an
    // invalid way.
    if ((meta[assoc - 1] & kWayValid) != 0) {
        // Evict the tail nibble of the recency word. Moving it to the
        // front is then a plain rotate — no position-finding loop on
        // the (hot) full-set miss path.
        const std::uint64_t ord = _order[set];
        const std::uint32_t victim = static_cast<std::uint32_t>(
            (ord >> (4 * (assoc - 1))) & 0xF);
        _order[set] =
            ((ord & ((std::uint64_t{1} << (4 * (assoc - 1))) - 1)) << 4) |
            victim;
        const std::uint32_t vm = meta[victim];
        Result res;
        res.victim = lineAddr(static_cast<std::uint64_t>(vm >> kWayTagShift),
                              set);
        if ((vm & kWayDirty) != 0) {
            res.dirtyVictim = true;
            ++_writebacks;
        } else {
            res.cleanVictim = true;
        }
        meta[victim] = (tag << kWayTagShift) | kWayValid | mark;
        return res;
    }

    // Cold fill into the first invalid way: never a writeback. The
    // suffix invariant guarantees the scan stops before the last way.
    std::uint32_t victim = 0;
    while ((meta[victim] & kWayValid) != 0)
        ++victim;
    meta[victim] = (tag << kWayTagShift) | kWayValid | mark;
    touchWay(_order[set], victim);
    return Result{};
}

inline Cache::Result
Cache::access(std::uint64_t addr, bool dirty)
{
    switch (_cfg.assoc) {
      case 4: return accessWays<4>(addr, dirty);
      case 8: return accessWays<8>(addr, dirty);
      case 16: return accessWays<16>(addr, dirty);
      default: return accessWays<0>(addr, dirty);
    }
}

/** Configuration of the full hierarchy. */
struct HierarchyConfig {
    CacheConfig l1d{32 * 1024, 4, 64, 2};
    CacheConfig l2{256 * 1024, 8, 64, 11};
    CacheConfig l3{4 * 1024 * 1024, 16, 64, 40};

    /**
     * Per-core sustained service time for draining one store-missed
     * line (miss handling through the core's limited line-fill
     * buffers). Wall-clock: the drain path is paced by the memory
     * side, not the core clock — the physical origin of the paper's
     * non-scaling store bursts.
     */
    double writeDrainNs = 11.0;
};

/**
 * The multi-level hierarchy shared by all cores.
 *
 * Owns per-core L1D and L2 instances plus the shared L3, the per-core
 * write ports and the warm overlay, and routes misses and dirty
 * writebacks to the DRAM model. load() walks a load; store bursts are
 * walked by CoreModel::executeStoreBurst through the store-path hooks.
 */
class CacheHierarchy
{
  public:
    /** Outcome of a load walked through the hierarchy. */
    struct LoadOutcome {
        HitLevel level;    ///< where the load was satisfied
        Tick completion;   ///< tick the data reaches the core
        Tick memLatency;   ///< completion - issue
    };

    /**
     * @param cores  Number of cores (private cache instances).
     * @param cfg    Geometry/timing for the three levels.
     * @param dram   Backing memory model.
     * @param uncore Fixed-frequency domain clocking the L3.
     */
    CacheHierarchy(std::uint32_t cores, const HierarchyConfig &cfg,
                   Dram &dram, const FreqDomain &uncore);

    /**
     * Walk a load through the hierarchy.
     *
     * @param core      Issuing core.
     * @param addr      Byte address.
     * @param issue     Tick the access leaves the core.
     * @param core_freq Core frequency (for the scaling L2 latency).
     */
    LoadOutcome load(std::uint32_t core, std::uint64_t addr, Tick issue,
                     Frequency core_freq);

    /// @name Store path
    ///
    /// Store bursts walk the tags in CoreModel::executeStoreBurst, one
    /// walk per burst with these per-core handles hoisted out of its
    /// line loop. Each line installs dirty in L1 (a dirty L1 victim
    /// folds into L2, a dirty L2 victim into L3), then in L3. An L3
    /// hit drains at cache speed. On a miss the line is handled by the
    /// core's write port (a line-fill-buffer pipeline with fixed
    /// wall-clock service), and a dirty L3 victim consumes DRAM write
    /// bandwidth — so sustained bursts drain at memory speed at every
    /// DVFS setting, the mechanism behind the paper's store-queue
    /// backpressure (Section III-D).
    /// @{

    /** Per-core write-port horizon: the tick its pipeline frees up. */
    Tick &writePort(std::uint32_t core) { return _writePortFreeAt[core]; }

    /** Write-port service time per missed line, in ticks. */
    Tick writeDrainTicks() const { return _writeDrainTicks; }

    /** True once enableWarmOverlay() has armed the overlay. */
    bool warmEnabled() const { return _warmEnabled; }

    /**
     * Overlay step for one detailed store line, after its L3 install.
     * Advances the overlay's write clock, so warm ranges decay at the
     * same rate whether the writes that push them out executed in
     * detail or were charged analytically. @return true when the line
     * counts as on chip: it hit the L3 tags (@p l3Hit), or it falls
     * in a warm range — re-zeroing a line a fast-forwarded burst wrote
     * drains at cache speed, as it would have had that burst executed
     * in detail.
     */
    bool
    warmStoreOnChip(std::uint64_t addr, bool l3Hit)
    {
        _warmWritten += 1;
        return l3Hit || warmHit(addr);
    }

    /**
     * Overlay stand-in for the writeback an L3 install (@p r3, for
     * @p addr) did not produce: the displaced line would, at
     * overlay-coverage rate, have been a dirty burst line in exact
     * mode, so pay the DRAM write it would have cost at @p t. A clean
     * victim gives the faithful address; on a cold fill flip a tag
     * bit — channel and bank decode from the low line bits either
     * way, so reads see the same bank pressure.
     */
    void warmVictimWrite(std::uint64_t addr, const Cache::Result &r3, Tick t);
    /// @}

    /// @name Warm-range overlay (sampled runs only)
    ///
    /// Fast-forwarded store bursts are charged analytically, so their
    /// lines never walk the tag arrays — yet their residency is
    /// load-bearing: GC trace speed depends on freshly zeroed nursery
    /// lines hitting on chip. The overlay records burst footprints as
    /// coalesced address ranges (O(1) per burst instead of O(lines)
    /// tag walks) and answers "would this line be L3-resident had the
    /// burst executed in detail?" for loads and stores that miss the
    /// real tags. A range stays warm until roughly one L3 capacity of
    /// younger lines has been written past it (streaming LRU decay).
    ///
    /// Exact runs never enable the overlay, so their tag state,
    /// timing and fingerprints are bit-identical with this machinery
    /// compiled in.
    /// @{

    /** Arm the overlay (called once, before the run, by sampling). */
    void enableWarmOverlay();

    /** Record @p lines freshly written lines starting at @p baseAddr. */
    void warmLines(std::uint64_t baseAddr, std::uint32_t lines);

    /** Misses answered warm by the overlay so far (diagnostics). */
    std::uint64_t warmHits() const { return _warmHitCount; }
    /// @}

    /** Reset all cache state (between runs). */
    void reset();

    /** L2-hit latency in ticks at the given core frequency. */
    Tick l2HitTicks(Frequency core_freq) const;

    /** L3-hit latency in ticks (fixed uncore clock). */
    Tick l3HitTicks() const;

    const HierarchyConfig &config() const { return _cfg; }
    std::uint32_t cores() const
    {
        return static_cast<std::uint32_t>(_l1d.size());
    }
    Cache &l1d(std::uint32_t core) { return _l1d[core]; }
    Cache &l2(std::uint32_t core) { return _l2[core]; }
    Cache &l3() { return _l3; }
    Dram &dram() { return _dram; }

  private:
    /**
     * One coalesced run of warm lines. [first, last) in line units;
     * stamp is the overlay write clock when the range was last
     * extended — the range decays once _warmWritten outruns it by an
     * L3 capacity.
     */
    struct WarmRange {
        std::uint64_t first = 0;
        std::uint64_t last = 0;
        std::uint64_t stamp = 0;
    };

    /** True when @p addr falls in a still-warm overlay range. */
    bool warmHit(std::uint64_t addr);

    /**
     * Dirty-victim debt accumulator. In exact mode the L3 is largely
     * populated by the gap's (dirty) burst lines, so a detail-window
     * install usually evicts a dirty line and costs a DRAM write. The
     * sampled tags never held those lines, so installs find clean or
     * invalid ways and the write pressure vanishes — which quiets the
     * banks and makes window loads read as less memory-bound than the
     * exact run. Each install that produced no real writeback calls
     * this; it returns true at a deterministic rate equal to the
     * overlay's live coverage over L3 capacity (the probability the
     * displaced line would have been a warm dirty one), and the
     * caller issues the victim writeback exact mode would have paid.
     */
    bool warmVictimDue();

    HierarchyConfig _cfg;
    Dram &_dram;
    const FreqDomain &_uncore;
    std::vector<Cache> _l1d;
    std::vector<Cache> _l2;
    Cache _l3;
    /** Per-core write-port horizon (line-fill buffer pipeline). */
    std::vector<Tick> _writePortFreeAt;
    /** nsToTicks(_cfg.writeDrainNs), hoisted off the store path. */
    Tick _writeDrainTicks = 0;
    /**
     * Memoized hit latencies: cyclesToTicks is a double divide +
     * llround, paid per walked load before these caches. Frequencies
     * change only at DVFS decisions (and the uncore never does), so
     * one compare almost always short-circuits the math. Same values,
     * just cached — bit-exact.
     */
    mutable Frequency _l2TickFreq{};
    mutable Tick _l2TickCache = 0;
    mutable Frequency _l3TickFreq{};
    mutable Tick _l3TickCache = 0;

    /// @name Warm-range overlay state
    /// @{
    bool _warmEnabled = false;
    std::uint32_t _warmLineShift = 6;   ///< log2(L3 line bytes)
    std::uint64_t _warmCapLines = 0;    ///< L3 capacity, in lines
    std::uint64_t _warmL3Lines = 0;     ///< total L3 lines (debt scale)
    std::uint64_t _warmWritten = 0;     ///< overlay write clock (lines)
    std::uint64_t _warmDebt = 0;        ///< dirty-victim accumulator
    std::uint64_t _warmHitCount = 0;
    std::vector<WarmRange> _warmRanges; ///< stamp-ordered, newest last
    /// @}
};

} // namespace dvfs::uarch

#endif // DVFS_UARCH_CACHE_HH
