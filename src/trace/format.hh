/**
 * @file
 * The .dvfstrace on-disk format: constants, header layout, TraceError.
 *
 * A trace file persists everything a predictor may legally observe
 * about one recorded run (the pred::RunView surface plus identifying
 * metadata), so predictor evaluation can replay a run offline without
 * re-simulating it. The format is versioned, sectioned and digested:
 *
 *   offset  size  field
 *   ------  ----  -----------------------------------------------
 *        0     8  magic "DVFSTRC1" (little-endian u64)
 *        8     4  format version (u32, currently 1)
 *       12     4  reserved, must be zero (u32)
 *       16     8  payload digest: FNV-1a over bytes [24, EOF) (u64)
 *       24     …  payload
 *
 *   payload := u32 section count, then per section
 *       u32 section id | u32 reserved (zero) | u64 byte length | bytes
 *
 * All integers are little-endian, serialized field-by-field (no struct
 * memcpy, so the format is independent of host padding). The digest
 * covers every payload byte including the section table, so any
 * corruption below the header is caught before section parsing
 * begins; corrupt, truncated or alien input always raises a
 * structured TraceError, never undefined behaviour.
 *
 * Compatibility rules (DESIGN.md section 10): readers skip unknown
 * section ids (new observation fields are added as new sections);
 * changing the layout *inside* an existing section requires a version
 * bump, which old readers reject with TraceError::Kind::BadVersion.
 */

#ifndef DVFS_TRACE_FORMAT_HH
#define DVFS_TRACE_FORMAT_HH

#include <cstdint>
#include <stdexcept>
#include <string>

namespace dvfs::trace {

/** "DVFSTRC1" as a little-endian u64. */
constexpr std::uint64_t kTraceMagic = 0x3143525453465644ULL;

/** Current format version. */
constexpr std::uint32_t kTraceVersion = 1;

/** Size of the fixed header preceding the payload. */
constexpr std::size_t kTraceHeaderBytes = 24;

/** Section identifiers. */
enum class SectionId : std::uint32_t {
    Meta = 1,     ///< workload name, seed, base frequency, total time
    Threads = 2,  ///< whole-run per-thread summaries
    Epochs = 3,   ///< epoch decomposition with per-thread deltas
    GcMarks = 4,  ///< GC phase boundaries (COOP signal)
    // 5 is retired: it held a raw sync-event trace no reader used.
    // Readers skip it like any unknown id; writers never reuse it.
};

/**
 * Structured failure of trace encoding/decoding.
 *
 * Every malformed input maps to exactly one kind; offset() is the
 * byte position at which the problem was detected (0 when it has no
 * meaningful position, e.g. an unopenable file).
 */
class TraceError : public std::runtime_error
{
  public:
    enum class Kind {
        Io,             ///< file unreadable/unwritable
        Truncated,      ///< input ends inside a field or section
        BadMagic,       ///< not a .dvfstrace file
        BadVersion,     ///< format version this reader cannot parse
        BadValue,       ///< field holds an impossible value
        DigestMismatch, ///< payload bytes do not match the digest
        MissingSection, ///< a required section is absent
        DuplicateCell,  ///< two grid cells map to one trace file
        CellMismatch,   ///< a trace describes a different run than
                        ///< the grid cell it was loaded for
    };

    TraceError(Kind kind, std::uint64_t offset, const std::string &what)
        : std::runtime_error("trace: " + what + " (at byte " +
                             std::to_string(offset) + ")"),
          _kind(kind), _offset(offset)
    {
    }

    Kind kind() const { return _kind; }

    /** Byte offset at which the error was detected. */
    std::uint64_t offset() const { return _offset; }

    /** Printable name of an error kind. */
    static const char *kindName(Kind kind);

  private:
    Kind _kind;
    std::uint64_t _offset;
};

} // namespace dvfs::trace

#endif // DVFS_TRACE_FORMAT_HH
