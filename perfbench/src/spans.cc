#include "spans.hh"

#include <algorithm>
#include <atomic>
#include <deque>
#include <iomanip>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench {

namespace {

/** Upper bound on buffered spans, so a long traced run stays bounded. */
constexpr std::uint64_t kMaxSpans = 4u << 20;

std::atomic<bool> g_on{false};
std::atomic<std::uint64_t> g_nextId{1};
std::atomic<std::uint64_t> g_count{0};
std::atomic<std::uint64_t> g_dropped{0};

struct Registry {
    std::mutex mtx;
    std::vector<std::shared_ptr<std::vector<SpanRecord>>> buffers;
    std::deque<std::string> names;  ///< deque: pointers stay valid
    std::map<std::string, const char *> byName;
};

Registry &
registry()
{
    static Registry r;
    return r;
}

struct ThreadState {
    std::shared_ptr<std::vector<SpanRecord>> buf;
    std::uint32_t index = 0;
    std::uint64_t current = 0;  ///< innermost open span id
};

ThreadState &
threadState()
{
    thread_local ThreadState st;
    if (!st.buf) {
        Registry &r = registry();
        std::lock_guard<std::mutex> lk(r.mtx);
        st.buf = std::make_shared<std::vector<SpanRecord>>();
        st.index = static_cast<std::uint32_t>(r.buffers.size());
        r.buffers.push_back(st.buf);
    }
    return st;
}

} // namespace

void
setTracing(bool on)
{
    g_on.store(on, std::memory_order_relaxed);
}

bool
tracing()
{
    return g_on.load(std::memory_order_relaxed);
}

const char *
intern(const std::string &name)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lk(r.mtx);
    auto it = r.byName.find(name);
    if (it != r.byName.end())
        return it->second;
    r.names.push_back(name);
    const char *p = r.names.back().c_str();
    r.byName.emplace(name, p);
    return p;
}

Scope::Scope(const char *name, std::uint64_t request, std::uint64_t parent)
{
    if (!g_on.load(std::memory_order_relaxed))
        return;
    ThreadState &st = threadState();
    _rec.name = name;
    _rec.id = g_nextId.fetch_add(1, std::memory_order_relaxed);
    _rec.parent = parent == kInheritParent ? st.current : parent;
    _rec.request = request;
    _rec.thread = st.index;
    _savedCurrent = st.current;
    st.current = _rec.id;
    _rec.startNs = nowNs();
}

namespace {

void
store(ThreadState &st, const SpanRecord &rec)
{
    if (g_count.fetch_add(1, std::memory_order_relaxed) >= kMaxSpans) {
        g_dropped.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    st.buf->push_back(rec);
}

} // namespace

Scope::~Scope()
{
    if (_rec.id == 0)
        return;
    _rec.endNs = nowNs();
    ThreadState &st = threadState();
    st.current = _savedCurrent;
    store(st, _rec);
}

std::uint64_t
recordSpan(const char *name, std::int64_t startNs, std::int64_t endNs,
           std::uint64_t request, std::uint64_t parent)
{
    if (!g_on.load(std::memory_order_relaxed))
        return 0;
    ThreadState &st = threadState();
    SpanRecord rec;
    rec.name = name;
    rec.startNs = startNs;
    rec.endNs = endNs;
    rec.id = g_nextId.fetch_add(1, std::memory_order_relaxed);
    rec.parent = parent;
    rec.request = request;
    rec.thread = st.index;
    store(st, rec);
    return rec.id;
}

std::vector<SpanRecord>
collectSpans()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lk(r.mtx);
    std::vector<SpanRecord> all;
    for (const auto &b : r.buffers)
        all.insert(all.end(), b->begin(), b->end());
    std::sort(all.begin(), all.end(),
              [](const SpanRecord &a, const SpanRecord &b) {
                  return a.startNs < b.startNs;
              });
    return all;
}

std::uint64_t
droppedSpans()
{
    return g_dropped.load();
}

std::vector<LayerTime>
layerTimes(const std::vector<SpanRecord> &spans)
{
    std::unordered_map<std::uint64_t, std::size_t> byId;
    for (std::size_t i = 0; i < spans.size(); ++i)
        byId.emplace(spans[i].id, i);
    std::vector<std::vector<std::size_t>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto it = byId.find(spans[i].parent);
        if (it != byId.end())
            children[it->second].push_back(i);
    }

    std::map<std::string, LayerTime> acc;
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &s = spans[i];
        // Children can run concurrently on other threads; subtract the
        // union of their intervals, clipped to this span.
        iv.clear();
        for (std::size_t c : children[i]) {
            const std::int64_t a = std::max(spans[c].startNs, s.startNs);
            const std::int64_t b = std::min(spans[c].endNs, s.endNs);
            if (b > a)
                iv.emplace_back(a, b);
        }
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0, curA = 0, curB = 0;
        bool open = false;
        for (const auto &[a, b] : iv) {
            if (!open || a > curB) {
                if (open)
                    covered += curB - curA;
                curA = a;
                curB = b;
                open = true;
            } else {
                curB = std::max(curB, b);
            }
        }
        if (open)
            covered += curB - curA;

        LayerTime &lt = acc[s.name];
        lt.name = s.name;
        lt.count += 1;
        const auto dur = static_cast<double>(s.endNs - s.startNs);
        lt.totalMs += dur / 1e6;
        lt.selfMs += (dur - static_cast<double>(covered)) / 1e6;
    }

    std::vector<LayerTime> out;
    for (auto &[name, lt] : acc)
        out.push_back(lt);
    std::sort(out.begin(), out.end(),
              [](const LayerTime &a, const LayerTime &b) {
                  return a.selfMs > b.selfMs;
              });
    return out;
}

void
writeChromeTrace(std::ostream &os, const std::vector<SpanRecord> &spans)
{
    const std::int64_t t0 = spans.empty() ? 0 : spans.front().startNs;
    os << std::fixed << std::setprecision(3)
       << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &s = spans[i];
        // Span names are built by the benchmark from [A-Za-z0-9_.+-],
        // so they need no JSON escaping.
        os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
           << ",\"ts\":" << static_cast<double>(s.startNs - t0) / 1e3
           << ",\"dur\":" << static_cast<double>(s.endNs - s.startNs) / 1e3
           << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
           << ",\"request\":" << s.request << "}}";
    }
    os << "\n]}\n";
}

} // namespace perfbench
