#include "trace/writer.hh"

#include <fstream>

#include "trace/format.hh"
#include "trace/wire.hh"

namespace dvfs::trace {

namespace {

/** Epochs: each row back to its 15 raw words, zeros included. */
void
encodeEpochs(FieldWriter &io, const pred::EpochStore &epochs)
{
    io.u64(epochs.size());
    for (const pred::Epoch ep : epochs) {
        io.u64(ep.start);
        io.u64(ep.end);
        io.u32(static_cast<std::uint32_t>(ep.boundary));
        io.u32(ep.stallTid);
        io.u64(ep.active.size());
        for (const pred::EpochThread et : ep.active) {
            io.u32(et.tid);
            io.zero32("epoch.active.pad");
            counters(io, et.delta);
        }
    }
}

} // namespace

std::vector<std::uint8_t>
encodeTrace(const pred::RunRecord &rec, const TraceMeta &meta)
{
    Encoder e;
    e.u64(kTraceMagic);
    e.u32(kTraceVersion);
    e.u32(0);
    e.u64(0);  // payload digest, patched below
    FieldWriter io(e);
    e.u32(4);  // section count
    writeSection(e, SectionId::Meta, [&] { metaLayout(io, meta, rec); });
    writeSection(e, SectionId::Threads,
                 [&] { threadsLayout(io, rec.threads); });
    writeSection(e, SectionId::Epochs,
                 [&] { encodeEpochs(io, rec.epochs); });
    writeSection(e, SectionId::GcMarks,
                 [&] { gcMarksLayout(io, rec.gcMarks); });
    e.patch(16, fnv1aBytes(e.bytes().data() + kTraceHeaderBytes,
                           e.bytes().size() - kTraceHeaderBytes));
    return std::move(e.bytes());
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
