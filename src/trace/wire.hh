/**
 * @file
 * Trace-flavoured view of the shared wire codec (src/net/wire.hh),
 * and the field lists of the .dvfstrace sections. Internal to
 * src/trace/ — not part of the stable surface.
 *
 * The encoder, cursor, field adapters, section framing and digest live
 * in net::wire so the .dvfstrace format and the DVFSRPC1 protocol
 * share exactly one strict-decode implementation; this header binds
 * the cursor's error policy to trace::TraceError (any overrun or
 * impossible byte sequence raises TraceError::Truncated /
 * TraceError::BadValue) and writes the Meta, Threads and GcMarks
 * layouts once, for encodeTrace and decodeTrace alike. A new field is
 * one line in its list; a new section is one writeSection call in the
 * writer and one case in the reader. The Epochs section is a
 * hand-written pair (writer.cc, reader.cc): its writer expands each
 * zero-elided store row to its 15 words and its reader compresses
 * them back, so one list would have to branch on the direction.
 */

#ifndef DVFS_TRACE_WIRE_HH
#define DVFS_TRACE_WIRE_HH

#include <cstdint>

#include "net/wire.hh"
#include "trace/format.hh"
#include "uarch/perf_counters.hh"

namespace dvfs::trace {

using Encoder = net::Encoder;
using net::FieldWriter;

/** Maps shared-cursor failures onto structured TraceErrors. */
struct TraceWirePolicy {
    [[noreturn]] static void
    truncated(std::uint64_t offset, const char *what)
    {
        throw TraceError(TraceError::Kind::Truncated, offset, what);
    }

    [[noreturn]] static void
    badValue(std::uint64_t offset, const char *what)
    {
        throw TraceError(TraceError::Kind::BadValue, offset, what);
    }
};

using Cursor = net::BasicCursor<TraceWirePolicy>;
using FieldReader = net::FieldReader<TraceWirePolicy>;

using net::fnv1aBytes;
using net::writeSection;

/** A counter block: its words, in declaration order. */
inline void
counters(FieldWriter &io, const uarch::PerfCounters &c)
{
    for (std::uint64_t w : c.words())
        io.u64(w);
}

inline void
counters(FieldReader &io, uarch::PerfCounters &c)
{
    uarch::PerfCounters::Words words;
    for (std::uint64_t &w : words)
        io.u64(w);
    c = uarch::PerfCounters::fromWords(words);
}

/** Meta: workload name, seed, base frequency, total time. */
template <class Io, class Meta, class Rec>
void
metaLayout(Io &io, Meta &meta, Rec &rec)
{
    io.str(meta.workload);
    io.u64(meta.seed);
    io.nonzero32(rec.baseFreq, "base frequency is zero");
    io.zero32("meta.pad");
    io.u64(rec.totalTime);
}

/** Threads: the whole-run per-thread summaries. */
template <class Io, class Threads>
void
threadsLayout(Io &io, Threads &threads)
{
    io.list(net::Count::U64, threads, 24 + sizeof(uarch::PerfCounters),
            "thread", [&](auto &t) {
                io.u32(t.tid);
                io.flag32(t.service, "thread.service is not a boolean");
                io.u64(t.spawnTick);
                io.u64(t.exitTick);
                counters(io, t.totals);
            });
}

/** GcMarks: the GC phase boundaries. */
template <class Io, class Marks>
void
gcMarksLayout(Io &io, Marks &marks)
{
    io.list(net::Count::U64, marks, 16, "gc mark", [&](auto &m) {
        io.u64(m.tick);
        io.flag32(m.begin, "gcMark.begin is not a boolean");
        io.zero32("gcMark.pad");
    });
}

} // namespace dvfs::trace

#endif // DVFS_TRACE_WIRE_HH
