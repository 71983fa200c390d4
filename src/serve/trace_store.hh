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
 * Each entry also holds the trace's PredictionTable, built once at
 * insert, so queries walk prepared rows and never the decoded record.
 *
 * Capacity is bounded by decoded payload plus table bytes; inserting
 * past the bound evicts least-recently-used entries (entries currently
 * shared with in-flight queries stay alive through their shared_ptr
 * until the last query drops them). All operations are thread-safe.
 */

#ifndef DVFS_SERVE_TRACE_STORE_HH
#define DVFS_SERVE_TRACE_STORE_HH

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "pred/table.hh"
#include "trace/reader.hh"

namespace dvfs::serve {

/** A decoded trace and its prediction table. */
struct CachedTrace {
    explicit CachedTrace(trace::LoadedTrace loaded)
        : trace(std::move(loaded)), table(trace)
    {
    }

    trace::LoadedTrace trace;
    pred::PredictionTable table;
};

/** Cumulative cache counters (monotone; snapshot under the lock). */
struct TraceStoreStats {
    std::uint64_t hits = 0;        ///< get() found the digest
    std::uint64_t misses = 0;      ///< get() did not
    std::uint64_t insertions = 0;  ///< put() decoded a new entry
    std::uint64_t reuses = 0;      ///< put() found the digest cached
    std::uint64_t evictions = 0;   ///< entries dropped by the bound
    std::uint64_t entries = 0;     ///< live entries right now
    std::uint64_t bytes = 0;       ///< decoded bytes held right now
};

class TraceStore
{
  public:
    /** @param capacity_bytes decoded-trace byte budget (>= 1 entry). */
    explicit TraceStore(std::size_t capacity_bytes)
        : _capacity(capacity_bytes)
    {
    }

    /**
     * Decode @p image, build its table and cache both under the
     * payload digest.
     *
     * Returns the cached (or pre-existing) entry and whether it was
     * already present. The decode is strict — any malformed image
     * throws trace::TraceError and caches nothing.
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

    /** Approximate footprint of a decoded trace and its table. */
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
