#include "serve/trace_store.hh"

#include "trace/writer.hh"

namespace dvfs::serve {

std::size_t
TraceStore::footprint(const CachedTrace &c)
{
    const pred::RunRecord &rec = c.trace.record();
    std::size_t bytes = sizeof(trace::LoadedTrace) + c.table.bytes();
    bytes += rec.threads.size() * sizeof(pred::ThreadSummary);
    bytes += rec.gcMarks.size() * sizeof(pred::GcPhaseMark);
    bytes += rec.epochs.bytes();
    return bytes;
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

    // Strict decode and table build outside the lock: uploads of
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
