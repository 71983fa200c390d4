/**
 * @file
 * In-memory span recorder for traced benchmark runs.
 *
 * A span is one call into a layer of the library, timed from the
 * benchmark's side: name, start, end, the span that caused it, and the
 * request it belongs to. Spans are buffered per thread (no lock on the
 * hot path once a thread has registered its buffer) and only read after
 * every recording thread has been joined. When tracing is off a Scope
 * costs one relaxed load and a branch, so untraced runs measure the
 * library, not the recorder.
 *
 * At exit the spans are written as Chrome-trace JSON ("X" events, one
 * row per thread) and summarised as self time per span name: a span's
 * duration minus the part of it covered by its children, so nested
 * layers are not counted twice.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/** Monotonic nanoseconds (steady_clock). */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct SpanRecord {
    const char *name = nullptr;  ///< interned; lives for the process
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;   ///< 0 = root
    std::uint64_t request = 0;  ///< 0 = not tied to a request
    std::uint32_t thread = 0;   ///< small per-thread index
};

/** Per-name totals derived from the recorded spans. */
struct LayerTime {
    std::string name;
    std::uint64_t count = 0;
    double totalMs = 0.0;
    double selfMs = 0.0;
};

/** Turn recording on or off (call only while no span is open). */
void setTracing(bool on);
bool tracing();

/** Stable pointer to a copy of @p name, for span names built at run time. */
const char *intern(const std::string &name);

/** Parent value meaning "the innermost open span on this thread". */
constexpr std::uint64_t kInheritParent = ~std::uint64_t{0};

/** RAII span: records [construction, destruction) when tracing is on. */
class Scope
{
  public:
    explicit Scope(const char *name, std::uint64_t request = 0,
                   std::uint64_t parent = kInheritParent);
    ~Scope();

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    /** This span's id (0 when tracing is off), for cross-thread parents. */
    std::uint64_t id() const { return _rec.id; }

  private:
    SpanRecord _rec;
    std::uint64_t _savedCurrent = 0;
};

/**
 * Record a span measured elsewhere (one that starts on one thread and
 * ends on another, such as a request from send to reply). Returns its
 * id, or 0 when tracing is off.
 */
std::uint64_t recordSpan(const char *name, std::int64_t startNs,
                         std::int64_t endNs, std::uint64_t request,
                         std::uint64_t parent);

/** Every recorded span, all threads; callers must have joined them. */
std::vector<SpanRecord> collectSpans();

/** Spans dropped because the in-memory cap was reached. */
std::uint64_t droppedSpans();

/** Self and total time per span name, largest self time first. */
std::vector<LayerTime> layerTimes(const std::vector<SpanRecord> &spans);

/** Write @p spans as Chrome-trace JSON (chrome://tracing, Perfetto). */
void writeChromeTrace(std::ostream &os,
                      const std::vector<SpanRecord> &spans);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
