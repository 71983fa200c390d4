#include "trace/reader.hh"

#include <filesystem>
#include <fstream>

#include "trace/wire.hh"

namespace dvfs::trace {

namespace {

/** Epochs: each row's 15 words, compressed into the zero-elided store. */
void
decodeEpochs(Cursor &c, pred::EpochStore &epochs)
{
    FieldReader io(c);
    const std::uint64_t n = c.u64();
    c.checkCount(n, 32, "epoch");
    epochs.reserveEpochs(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
        const Tick start = c.u64();
        const Tick end = c.u64();
        const std::uint32_t boundary = c.u32In(
            0, static_cast<std::uint32_t>(os::SyncEventKind::RunEnd),
            "epoch.boundary is not a SyncEventKind");
        const os::ThreadId stall_tid = c.u32();
        epochs.open(start, end, static_cast<os::SyncEventKind>(boundary),
                    stall_tid);
        const std::uint64_t actives = c.u64();
        c.checkCount(actives, 8 + sizeof(uarch::PerfCounters),
                     "epoch.active");
        for (std::uint64_t r = 0; r < actives; ++r) {
            const os::ThreadId tid = c.u32();
            c.zero32("epoch.active.pad");
            uarch::PerfCounters delta;
            counters(io, delta);
            epochs.addRow(tid, delta.words());
        }
    }
    epochs.shrinkToFit();
}

} // namespace

const char *
TraceError::kindName(Kind kind)
{
    switch (kind) {
      case Kind::Io: return "Io";
      case Kind::Truncated: return "Truncated";
      case Kind::BadMagic: return "BadMagic";
      case Kind::BadVersion: return "BadVersion";
      case Kind::BadValue: return "BadValue";
      case Kind::DigestMismatch: return "DigestMismatch";
      case Kind::MissingSection: return "MissingSection";
      case Kind::DuplicateCell: return "DuplicateCell";
      case Kind::CellMismatch: return "CellMismatch";
    }
    return "?";
}

std::uint64_t
verifyTraceImage(const std::vector<std::uint8_t> &image)
{
    if (image.size() < kTraceHeaderBytes) {
        throw TraceError(TraceError::Kind::Truncated, image.size(),
                         "input smaller than the trace header");
    }

    Cursor header(image.data(), kTraceHeaderBytes, 0);
    if (header.u64() != kTraceMagic) {
        throw TraceError(TraceError::Kind::BadMagic, 0,
                         "not a .dvfstrace file");
    }
    const std::uint32_t version = header.u32();
    if (version != kTraceVersion) {
        throw TraceError(TraceError::Kind::BadVersion, 8,
                         "unsupported format version " +
                             std::to_string(version));
    }
    if (header.u32() != 0) {
        throw TraceError(TraceError::Kind::BadValue, 12,
                         "reserved field header.reserved is nonzero");
    }
    const std::uint64_t stored_digest = header.u64();

    const std::uint8_t *payload = image.data() + kTraceHeaderBytes;
    const std::size_t payload_size = image.size() - kTraceHeaderBytes;
    if (fnv1aBytes(payload, payload_size) != stored_digest) {
        throw TraceError(TraceError::Kind::DigestMismatch, 16,
                         "payload digest mismatch (corrupt or "
                         "truncated trace)");
    }
    return stored_digest;
}

LoadedTrace
decodeTrace(const std::vector<std::uint8_t> &image)
{
    const std::uint64_t stored_digest = verifyTraceImage(image);

    // The digest has vouched for every payload byte; parse sections.
    const std::uint8_t *payload = image.data() + kTraceHeaderBytes;
    const std::size_t payload_size = image.size() - kTraceHeaderBytes;
    Cursor c(payload, payload_size, kTraceHeaderBytes);
    TraceMeta meta;
    pred::RunRecord rec;
    bool have_meta = false, have_threads = false, have_epochs = false,
         have_gc = false;
    c.sections([&](std::uint32_t id, Cursor &body) {
        FieldReader io(body);
        switch (static_cast<SectionId>(id)) {
          case SectionId::Meta:
            metaLayout(io, meta, rec);
            body.expectEnd("meta section");
            have_meta = true;
            break;
          case SectionId::Threads:
            threadsLayout(io, rec.threads);
            body.expectEnd("threads section");
            have_threads = true;
            break;
          case SectionId::Epochs:
            decodeEpochs(body, rec.epochs);
            body.expectEnd("epochs section");
            have_epochs = true;
            break;
          case SectionId::GcMarks:
            gcMarksLayout(io, rec.gcMarks);
            body.expectEnd("gcMarks section");
            have_gc = true;
            break;
          default:
            // Unknown section: a newer writer's extra observation
            // field, or the retired id 5. The digest already covers
            // its bytes; skip it.
            break;
        }
    });

    if (!have_meta) {
        throw TraceError(TraceError::Kind::MissingSection, 0,
                         "meta section absent");
    }
    if (!have_threads || !have_epochs || !have_gc) {
        throw TraceError(TraceError::Kind::MissingSection, 0,
                         "record section absent");
    }

    return LoadedTrace(std::move(meta), std::move(rec), stored_digest);
}

LoadedTrace
readTraceFile(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    if (!f) {
        throw TraceError(TraceError::Kind::Io, 0,
                         "cannot open '" + path + "' for reading");
    }
    // One sized read: the file's length, then the bytes in one call.
    // Only a regular file has a length to size the buffer by (a
    // directory opens, and reports a length of 2^63 - 1).
    std::error_code ec;
    if (!std::filesystem::is_regular_file(path, ec)) {
        throw TraceError(TraceError::Kind::Io, 0,
                         "'" + path + "' is not a regular file");
    }
    f.seekg(0, std::ios::end);
    const std::streamoff size = f.tellg();
    f.seekg(0, std::ios::beg);
    if (size < 0 || !f) {
        throw TraceError(TraceError::Kind::Io, 0,
                         "read failure on '" + path + "'");
    }
    std::vector<std::uint8_t> image(static_cast<std::size_t>(size));
    f.read(reinterpret_cast<char *>(image.data()), size);
    if (f.gcount() != size) {
        throw TraceError(TraceError::Kind::Io, 0,
                         "read failure on '" + path + "'");
    }
    return decodeTrace(image);
}

} // namespace dvfs::trace
