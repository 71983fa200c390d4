/**
 * @file
 * Trace reader: validate and load a .dvfstrace into a pred::RunView.
 *
 * The reader is strict before it is lenient: magic, version, reserved
 * fields and the FNV-1a payload digest are checked before any section
 * is parsed, every section length is bounds-checked against the
 * input, and every enum/id field is range-checked. Malformed input of
 * any kind — truncated, bit-flipped, alien — raises a structured
 * TraceError; it can never produce undefined behaviour or a silently
 * wrong record. Unknown section ids, by contrast, are skipped (they
 * are how future writers add observation fields, see DESIGN.md
 * section 10), which is safe precisely because the digest has already
 * vouched for the bytes.
 */

#ifndef DVFS_TRACE_READER_HH
#define DVFS_TRACE_READER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "pred/record.hh"
#include "pred/run_view.hh"
#include "trace/format.hh"
#include "trace/writer.hh"

namespace dvfs::trace {

/**
 * A run loaded from a .dvfstrace file — the offline RunView backend.
 *
 * Owns the deserialized record; views handed to predictors stay valid
 * for the lifetime of the LoadedTrace.
 */
class LoadedTrace final : public pred::RunView
{
  public:
    LoadedTrace() = default;
    LoadedTrace(TraceMeta meta, pred::RunRecord rec,
                std::uint64_t payload_digest)
        : _meta(std::move(meta)), _rec(std::move(rec)),
          _digest(payload_digest)
    {
    }

    /** Identifying metadata (workload name, seed). */
    const TraceMeta &meta() const { return _meta; }

    /** The reconstructed record (equal field-by-field to the source). */
    const pred::RunRecord &record() const { return _rec; }

    /** The verified payload digest from the file header. */
    std::uint64_t payloadDigest() const { return _digest; }

    // RunView surface.
    Frequency baseFreq() const override { return _rec.baseFreq; }
    Tick totalTime() const override { return _rec.totalTime; }

    const pred::EpochStore &
    epochs() const override
    {
        return _rec.epochs;
    }

    const std::vector<pred::ThreadSummary> &
    threads() const override
    {
        return _rec.threads;
    }

    const std::vector<pred::GcPhaseMark> &
    gcMarks() const override
    {
        return _rec.gcMarks;
    }

  private:
    TraceMeta _meta;
    pred::RunRecord _rec;
    std::uint64_t _digest = 0;
};

/**
 * Check an in-memory .dvfstrace image's header (magic, version,
 * reserved field) and its payload against the header digest, the
 * checks decodeTrace makes before it parses a section. Returns the
 * verified payload digest.
 *
 * @throws TraceError as decodeTrace would for the same bytes.
 */
std::uint64_t verifyTraceImage(const std::vector<std::uint8_t> &image);

/**
 * Decode an in-memory .dvfstrace image.
 *
 * @throws TraceError on any malformed input (see format.hh).
 */
LoadedTrace decodeTrace(const std::vector<std::uint8_t> &image);

/**
 * Read and decode @p path.
 *
 * @throws TraceError{Io} if unreadable, else as decodeTrace.
 */
LoadedTrace readTraceFile(const std::string &path);

} // namespace dvfs::trace

#endif // DVFS_TRACE_READER_HH
