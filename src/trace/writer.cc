#include "trace/writer.hh"

#include <fstream>

#include "trace/format.hh"
#include "trace/wire.hh"

namespace dvfs::trace {

namespace {

void
encodeCounters(Encoder &e, const uarch::PerfCounters &c)
{
    for (std::uint64_t w : c.words())
        e.u64(w);
}

Encoder
encodeMeta(const pred::RunRecord &rec, const TraceMeta &meta)
{
    Encoder e;
    e.str(meta.workload);
    e.u64(meta.seed);
    e.u32(rec.baseFreq.toMHz());
    e.u32(0);
    e.u64(rec.totalTime);
    return e;
}

Encoder
encodeThreads(const pred::RunRecord &rec)
{
    Encoder e;
    e.u64(rec.threads.size());
    for (const pred::ThreadSummary &t : rec.threads) {
        e.u32(t.tid);
        e.u32(t.service ? 1 : 0);
        e.u64(t.spawnTick);
        e.u64(t.exitTick);
        encodeCounters(e, t.totals);
    }
    return e;
}

Encoder
encodeEpochs(const pred::RunRecord &rec)
{
    Encoder e;
    e.u64(rec.epochs.size());
    for (const pred::Epoch ep : rec.epochs) {
        e.u64(ep.start);
        e.u64(ep.end);
        e.u32(static_cast<std::uint32_t>(ep.boundary));
        e.u32(ep.stallTid);
        e.u64(ep.active.size());
        // Each row back to its 15 raw words, zeros included.
        for (const pred::EpochThread et : ep.active) {
            e.u32(et.tid);
            e.u32(0);
            encodeCounters(e, et.delta);
        }
    }
    return e;
}

Encoder
encodeGcMarks(const pred::RunRecord &rec)
{
    Encoder e;
    e.u64(rec.gcMarks.size());
    for (const pred::GcPhaseMark &m : rec.gcMarks) {
        e.u64(m.tick);
        e.u32(m.begin ? 1 : 0);
        e.u32(0);
    }
    return e;
}

void
appendSection(Encoder &payload, SectionId id, const Encoder &body)
{
    payload.u32(static_cast<std::uint32_t>(id));
    payload.u32(0);
    payload.u64(body.bytes().size());
    payload.bytes().insert(payload.bytes().end(), body.bytes().begin(),
                           body.bytes().end());
}

} // namespace

std::vector<std::uint8_t>
encodeTrace(const pred::RunRecord &rec, const TraceMeta &meta)
{
    Encoder payload;
    payload.u32(4);
    appendSection(payload, SectionId::Meta, encodeMeta(rec, meta));
    appendSection(payload, SectionId::Threads, encodeThreads(rec));
    appendSection(payload, SectionId::Epochs, encodeEpochs(rec));
    appendSection(payload, SectionId::GcMarks, encodeGcMarks(rec));

    Encoder file;
    file.u64(kTraceMagic);
    file.u32(kTraceVersion);
    file.u32(0);
    file.u64(fnv1aBytes(payload.bytes().data(), payload.bytes().size()));
    file.bytes().insert(file.bytes().end(), payload.bytes().begin(),
                        payload.bytes().end());
    return std::move(file.bytes());
}

void
writeTraceFile(const std::string &path, const pred::RunRecord &rec,
               const TraceMeta &meta)
{
    const std::vector<std::uint8_t> image = encodeTrace(rec, meta);
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    if (!f) {
        throw TraceError(TraceError::Kind::Io, 0,
                         "cannot open '" + path + "' for writing");
    }
    f.write(reinterpret_cast<const char *>(image.data()),
            static_cast<std::streamsize>(image.size()));
    f.flush();
    if (!f) {
        throw TraceError(TraceError::Kind::Io, 0,
                         "short write to '" + path + "'");
    }
}

std::uint64_t
tracePayloadDigest(const std::vector<std::uint8_t> &image)
{
    if (image.size() < kTraceHeaderBytes) {
        throw TraceError(TraceError::Kind::Truncated, image.size(),
                         "image smaller than the trace header");
    }
    Cursor c(image.data(), kTraceHeaderBytes, 0);
    c.u64();  // magic
    c.u32();  // version
    c.u32();  // reserved
    return c.u64();
}

std::string
traceFileName(const std::string &workload, std::uint32_t freq_mhz,
              std::uint64_t seed)
{
    return workload + "_f" + std::to_string(freq_mhz) + "_s" +
           std::to_string(seed) + ".dvfstrace";
}

} // namespace dvfs::trace
