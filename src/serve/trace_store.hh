/**
 * @file
 * In-memory LRU cache of loaded traces, keyed by payload digest.
 *
 * One uploaded .dvfstrace serves thousands of predictor×frequency
 * queries with zero re-simulation and zero re-parsing: the first
 * upload pays the strict decode once, and every later query hits the
 * cache by the digest the upload reply named. The digest key makes
 * re-uploads idempotent — the bytes vouch for themselves, so two
 * clients uploading the same trace share one entry.
 *
 * Each entry holds the trace's PredictionTable and answer grid, built
 * once at insert from the decoded record, which is then dropped:
 * queries read stored answers or walk prepared rows.
 *
 * Capacity is bounded by table and grid bytes;
 * inserting past the bound evicts least-recently-used entries (entries
 * currently shared with in-flight queries stay alive through their
 * shared_ptr until the last query drops them). All operations are thread-safe.
 */

#ifndef DVFS_SERVE_TRACE_STORE_HH
#define DVFS_SERVE_TRACE_STORE_HH

#include <algorithm>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "pred/table.hh"
#include "trace/reader.hh"
#include "trace/replay.hh"

namespace dvfs::serve {

/**
 * A trace's prediction table, its answer grid and its thread count.
 *
 * The grid holds the estimate of every Figure 3 predictor at every
 * point of the machine's V/f table (power::VfTable::haswell()), built
 * by one walk of the table at insert. A query at a grid point reads
 * it; only targets off the grid walk the table again. Which points
 * lie on the grid stays inside this class.
 */
struct CachedTrace {
    /** Build the table and the grid of @p loaded; keep neither it
     *  nor its record. */
    explicit CachedTrace(const trace::LoadedTrace &loaded);

    /** The Figure 3 set, in the grid's predictor order. */
    static const trace::ReplayEngine &engine();

    /** Predictor @p p's estimate at @p f: stored, or one walk. */
    Tick
    estimate(std::size_t p, Frequency f) const
    {
        const std::size_t g = gridIndex(f);
        return g == kOffGrid
                   ? engine().predictors()[p]->predict(table, f)
                   : atGrid(g, p);
    }

    /**
     * Predictor @p p's Predictor::scanAscending over @p ascending:
     * the stored column when every point lies on the grid, else walks
     * of the table.
     */
    template <class Decides>
    void
    scanAscending(std::size_t p, std::span<const Frequency> ascending,
                  Decides &&decides) const
    {
        const bool on_grid =
            std::all_of(ascending.begin(), ascending.end(),
                        [](Frequency f) { return gridIndex(f) != kOffGrid; });
        if (!on_grid) {
            engine().predictors()[p]->scanAscending(table, ascending,
                                                    decides);
            return;
        }
        for (std::size_t i = 0; i < ascending.size(); ++i) {
            if (decides(i, atGrid(gridIndex(ascending[i]), p)))
                return;
        }
    }

    /**
     * engine().predictGrid() over this trace's table, in its layout:
     * grid points are read from the grid, and the other targets take
     * one walk of the table.
     */
    void predictGrid(std::span<const Frequency> targets,
                     std::span<Tick> out) const;

    pred::PredictionTable table;
    /** Target-major, predictor-minor, as ReplayEngine::predictGrid. */
    std::vector<Tick> grid;
    /** Threads in the trace's record. */
    std::size_t threads = 0;

  private:
    /** gridIndex() of a frequency that is not a grid point. */
    static constexpr std::size_t kOffGrid = ~std::size_t{0};

    /** Position of @p f among the grid's points, or kOffGrid. */
    static std::size_t gridIndex(Frequency f);

    /** Predictor @p p's estimate at grid point @p g. */
    Tick
    atGrid(std::size_t g, std::size_t p) const
    {
        return grid[g * engine().predictors().size() + p];
    }
};

/** Cumulative cache counters (monotone; snapshot under the lock). */
struct TraceStoreStats {
    std::uint64_t hits = 0;        ///< get() found the digest
    std::uint64_t misses = 0;      ///< get() did not
    std::uint64_t insertions = 0;  ///< put() decoded a new entry
    std::uint64_t reuses = 0;      ///< put() found the digest cached
    std::uint64_t evictions = 0;   ///< entries dropped by the bound
    std::uint64_t entries = 0;     ///< live entries right now
    std::uint64_t bytes = 0;       ///< entry bytes held right now
};

class TraceStore
{
  public:
    /** @param capacity_bytes entry byte budget (>= 1 entry). */
    explicit TraceStore(std::size_t capacity_bytes)
        : _capacity(capacity_bytes)
    {
    }

    /**
     * Decode @p image, build its table and grid and cache them under
     * the payload digest.
     *
     * Returns the cached (or pre-existing) entry and whether it was
     * already present. The decode is strict — any malformed image
     * throws trace::TraceError and caches nothing. An image whose
     * header names a cached digest is still verified against its
     * bytes (trace::verifyTraceImage), so a corrupt re-upload throws
     * too instead of being acknowledged as cached.
     */
    struct PutResult {
        std::uint64_t digest = 0;
        bool alreadyCached = false;
        std::shared_ptr<const CachedTrace> entry;
    };
    PutResult put(const std::vector<std::uint8_t> &image);

    /** Look up @p digest, promoting the entry to most-recently-used. */
    std::shared_ptr<const CachedTrace> get(std::uint64_t digest);

    TraceStoreStats stats() const;

  private:
    struct Entry {
        std::uint64_t digest;
        std::size_t bytes;
        std::shared_ptr<const CachedTrace> cached;
    };

    /** Approximate footprint of an entry: its table and grid. */
    static std::size_t footprint(const CachedTrace &c);

    void evictOverBudgetLocked();

    mutable std::mutex _mtx;
    std::size_t _capacity;
    std::size_t _bytes = 0;
    /** MRU at the front; eviction pops the back. */
    std::list<Entry> _lru;
    std::unordered_map<std::uint64_t, std::list<Entry>::iterator> _index;
    TraceStoreStats _stats;
};

} // namespace dvfs::serve

#endif // DVFS_SERVE_TRACE_STORE_HH
