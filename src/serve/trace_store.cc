#include "serve/trace_store.hh"

#include <algorithm>

#include "power/vf_table.hh"
#include "sim/log.hh"
#include "trace/writer.hh"

namespace dvfs::serve {

namespace {

/** The grid's frequencies: the machine's V/f points, ascending. */
const std::vector<Frequency> &
gridPoints()
{
    static const std::vector<Frequency> points =
        power::VfTable::haswell().frequencies();
    return points;
}

} // namespace

CachedTrace::CachedTrace(const trace::LoadedTrace &loaded)
    : table(loaded),
      grid(gridPoints().size() * engine().predictors().size()),
      threads(loaded.threads().size())
{
    engine().predictGrid(table, gridPoints(), grid);
}

const trace::ReplayEngine &
CachedTrace::engine()
{
    static const trace::ReplayEngine figure3;
    return figure3;
}

std::size_t
CachedTrace::gridIndex(Frequency f)
{
    const std::vector<Frequency> &points = gridPoints();
    const auto it = std::lower_bound(points.begin(), points.end(), f);
    if (it == points.end() || *it != f)
        return kOffGrid;
    return static_cast<std::size_t>(it - points.begin());
}

void
CachedTrace::predictGrid(std::span<const Frequency> targets,
                         std::span<Tick> out) const
{
    // Each target of a walk is computed apart from the others in its
    // chunk, so a stored answer equals the one a walk over any other
    // target list would give, bit for bit.
    const std::size_t np = engine().predictors().size();
    DVFS_ASSERT(out.size() == targets.size() * np,
                "one output per (target, predictor) cell");
    std::vector<std::size_t> walkAt;
    std::vector<Frequency> walkTargets;
    for (std::size_t t = 0; t < targets.size(); ++t) {
        const std::size_t g = gridIndex(targets[t]);
        if (g == kOffGrid) {
            walkAt.push_back(t);
            walkTargets.push_back(targets[t]);
            continue;
        }
        std::copy_n(grid.data() + g * np, np, out.data() + t * np);
    }
    if (walkAt.empty())
        return;
    std::vector<Tick> walked(walkAt.size() * np);
    engine().predictGrid(table, walkTargets, walked);
    for (std::size_t i = 0; i < walkAt.size(); ++i)
        std::copy_n(walked.data() + i * np, np, out.data() + walkAt[i] * np);
}

std::size_t
TraceStore::footprint(const CachedTrace &c)
{
    return c.table.bytes() + c.grid.size() * sizeof(Tick);
}

TraceStore::PutResult
TraceStore::put(const std::vector<std::uint8_t> &image)
{
    // The header digest names the entry but vouches for nothing until
    // the bytes are hashed: decodeTrace verifies it on a miss, and
    // verifyTraceImage on a hit, so a corrupt image naming a cached
    // trace raises the TraceError a miss would.
    const std::uint64_t digest = trace::tracePayloadDigest(image);

    bool cached_before = false;
    {
        std::lock_guard<std::mutex> lock(_mtx);
        cached_before = _index.count(digest) != 0;
    }
    if (cached_before) {
        trace::verifyTraceImage(image);
        std::lock_guard<std::mutex> lock(_mtx);
        auto it = _index.find(digest);
        if (it != _index.end()) {
            _lru.splice(_lru.begin(), _lru, it->second);
            ++_stats.reuses;
            return {digest, true, it->second->cached};
        }
        // Evicted while verifying: fall through and decode.
    }

    // Strict decode, table and grid build outside the lock: uploads of
    // distinct traces never serialize behind each other's parsing.
    auto cached =
        std::make_shared<const CachedTrace>(trace::decodeTrace(image));
    const std::size_t bytes = footprint(*cached);

    std::lock_guard<std::mutex> lock(_mtx);
    auto it = _index.find(digest);
    if (it != _index.end()) {
        // Raced with another upload of the same bytes; keep theirs.
        _lru.splice(_lru.begin(), _lru, it->second);
        ++_stats.reuses;
        return {digest, true, it->second->cached};
    }
    _lru.push_front(Entry{digest, bytes, cached});
    _index[digest] = _lru.begin();
    _bytes += bytes;
    ++_stats.insertions;
    evictOverBudgetLocked();
    return {digest, false, std::move(cached)};
}

std::shared_ptr<const CachedTrace>
TraceStore::get(std::uint64_t digest)
{
    std::lock_guard<std::mutex> lock(_mtx);
    auto it = _index.find(digest);
    if (it == _index.end()) {
        ++_stats.misses;
        return nullptr;
    }
    _lru.splice(_lru.begin(), _lru, it->second);
    ++_stats.hits;
    return it->second->cached;
}

void
TraceStore::evictOverBudgetLocked()
{
    // Keep at least the most recent entry even when it alone exceeds
    // the budget — a cache that cannot hold one trace serves nothing.
    while (_bytes > _capacity && _lru.size() > 1) {
        const Entry &victim = _lru.back();
        _bytes -= victim.bytes;
        _index.erase(victim.digest);
        _lru.pop_back();
        ++_stats.evictions;
    }
}

TraceStoreStats
TraceStore::stats() const
{
    std::lock_guard<std::mutex> lock(_mtx);
    TraceStoreStats s = _stats;
    s.entries = _lru.size();
    s.bytes = _bytes;
    return s;
}

} // namespace dvfs::serve
