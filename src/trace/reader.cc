#include "trace/reader.hh"

#include <fstream>

#include "trace/wire.hh"

namespace dvfs::trace {

namespace {

void
decodeCounters(Cursor &c, uarch::PerfCounters &out)
{
    out.busyTime = c.u64();
    out.instructions = c.u64();
    out.critNonscaling = c.u64();
    out.leadingNonscaling = c.u64();
    out.stallNonscaling = c.u64();
    out.sqFullTime = c.u64();
    out.trueMemTime = c.u64();
    out.computeTime = c.u64();
    out.l1Hits = c.u64();
    out.l2Hits = c.u64();
    out.l3Hits = c.u64();
    out.dramLoads = c.u64();
    out.missClusters = c.u64();
    out.storeBursts = c.u64();
    out.storeLines = c.u64();
}

/** Range-check a count field against the bytes that must back it. */
void
checkCount(const Cursor &c, std::uint64_t count, std::uint64_t min_bytes,
           const char *what)
{
    if (min_bytes != 0 && count > c.remaining() / min_bytes) {
        throw TraceError(TraceError::Kind::BadValue, c.offset(),
                         std::string(what) +
                             " count exceeds the section's bytes");
    }
}

void
checkZero(std::uint32_t v, std::uint64_t offset, const char *what)
{
    if (v != 0) {
        throw TraceError(TraceError::Kind::BadValue, offset,
                         std::string("reserved field ") + what +
                             " is nonzero");
    }
}

constexpr std::uint64_t kCounterBytes = 15 * 8;

void
decodeMeta(Cursor &c, TraceMeta &meta, pred::RunRecord &rec)
{
    meta.workload = c.str();
    meta.seed = c.u64();
    const std::uint32_t mhz = c.u32();
    if (mhz == 0) {
        throw TraceError(TraceError::Kind::BadValue, c.offset(),
                         "base frequency is zero");
    }
    checkZero(c.u32(), c.offset(), "meta.pad");
    rec.baseFreq = Frequency::mhz(mhz);
    rec.totalTime = c.u64();
}

void
decodeThreads(Cursor &c, pred::RunRecord &rec)
{
    const std::uint64_t n = c.u64();
    checkCount(c, n, 24 + kCounterBytes, "thread");
    rec.threads.resize(static_cast<std::size_t>(n));
    for (pred::ThreadSummary &t : rec.threads) {
        t.tid = c.u32();
        const std::uint32_t service = c.u32();
        if (service > 1) {
            throw TraceError(TraceError::Kind::BadValue, c.offset(),
                             "thread.service is not a boolean");
        }
        t.service = service != 0;
        t.spawnTick = c.u64();
        t.exitTick = c.u64();
        decodeCounters(c, t.totals);
    }
}

void
decodeEpochs(Cursor &c, pred::RunRecord &rec)
{
    const std::uint64_t n = c.u64();
    checkCount(c, n, 32, "epoch");
    rec.epochs.resize(static_cast<std::size_t>(n));
    for (pred::Epoch &ep : rec.epochs) {
        ep.start = c.u64();
        ep.end = c.u64();
        const std::uint32_t boundary = c.u32();
        if (boundary > static_cast<std::uint32_t>(
                           os::SyncEventKind::RunEnd)) {
            throw TraceError(TraceError::Kind::BadValue, c.offset(),
                             "epoch.boundary is not a SyncEventKind");
        }
        ep.boundary = static_cast<os::SyncEventKind>(boundary);
        ep.stallTid = c.u32();
        const std::uint64_t actives = c.u64();
        checkCount(c, actives, 8 + kCounterBytes, "epoch.active");
        ep.active.resize(static_cast<std::size_t>(actives));
        for (pred::EpochThread &et : ep.active) {
            et.tid = c.u32();
            checkZero(c.u32(), c.offset(), "epoch.active.pad");
            decodeCounters(c, et.delta);
        }
    }
}

void
decodeGcMarks(Cursor &c, pred::RunRecord &rec)
{
    const std::uint64_t n = c.u64();
    checkCount(c, n, 16, "gc mark");
    rec.gcMarks.resize(static_cast<std::size_t>(n));
    for (pred::GcPhaseMark &m : rec.gcMarks) {
        m.tick = c.u64();
        const std::uint32_t begin = c.u32();
        if (begin > 1) {
            throw TraceError(TraceError::Kind::BadValue, c.offset(),
                             "gcMark.begin is not a boolean");
        }
        m.begin = begin != 0;
        checkZero(c.u32(), c.offset(), "gcMark.pad");
    }
}

void
requireConsumed(const Cursor &c, const char *section)
{
    if (c.remaining() != 0) {
        throw TraceError(TraceError::Kind::BadValue, c.offset(),
                         std::string(section) +
                             " section has trailing bytes");
    }
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
    checkZero(header.u32(), 12, "header.reserved");
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
    const std::uint32_t sections = c.u32();

    TraceMeta meta;
    pred::RunRecord rec;
    bool have_meta = false, have_threads = false, have_epochs = false,
         have_gc = false;

    for (std::uint32_t s = 0; s < sections; ++s) {
        const std::uint32_t id = c.u32();
        checkZero(c.u32(), c.offset(), "section.reserved");
        const std::uint64_t length = c.u64();
        if (length > c.remaining()) {
            throw TraceError(TraceError::Kind::Truncated, c.offset(),
                             "section length exceeds the input");
        }
        Cursor body(payload + (c.offset() - kTraceHeaderBytes),
                    static_cast<std::size_t>(length), c.offset());
        c.skip(length);
        switch (static_cast<SectionId>(id)) {
          case SectionId::Meta:
            decodeMeta(body, meta, rec);
            requireConsumed(body, "meta");
            have_meta = true;
            break;
          case SectionId::Threads:
            decodeThreads(body, rec);
            requireConsumed(body, "threads");
            have_threads = true;
            break;
          case SectionId::Epochs:
            decodeEpochs(body, rec);
            requireConsumed(body, "epochs");
            have_epochs = true;
            break;
          case SectionId::GcMarks:
            decodeGcMarks(body, rec);
            requireConsumed(body, "gcMarks");
            have_gc = true;
            break;
          default:
            // Unknown section: a newer writer's extra observation
            // field, or the retired id 5. The digest already covers
            // its bytes; skip it.
            break;
        }
    }
    if (c.remaining() != 0) {
        throw TraceError(TraceError::Kind::BadValue, c.offset(),
                         "trailing bytes after the last section");
    }

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
    std::vector<std::uint8_t> image(
        (std::istreambuf_iterator<char>(f)),
        std::istreambuf_iterator<char>());
    if (f.bad()) {
        throw TraceError(TraceError::Kind::Io, 0,
                         "read failure on '" + path + "'");
    }
    return decodeTrace(image);
}

} // namespace dvfs::trace
