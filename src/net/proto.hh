/**
 * @file
 * DVFSRPC1: the versioned request/response frame format dvfsd speaks.
 *
 * One frame is one message. The layout follows the .dvfstrace house
 * style (format.hh): a fixed header whose every byte is load-bearing,
 * then a digested payload serialized field-by-field little-endian (no
 * struct memcpy, so the format is independent of host padding):
 *
 *   offset  size  field
 *   ------  ----  -----------------------------------------------
 *        0     8  magic "DVFSRPC1" (little-endian u64)
 *        8     4  protocol version (u32, currently 1)
 *       12     4  payload length N (u32, <= kMaxPayloadBytes)
 *       16     8  payload digest: FNV-1a over bytes [24, 24+N) (u64)
 *       24     N  payload
 *
 *   payload := u64 request id
 *            | u32 message type (kResponseBit | MsgType)
 *            | u32 reserved (zero)
 *            | type-specific body fields
 *            | u32 trailing-section count, then per section
 *              u32 id | u32 reserved (zero) | u64 byte length | bytes
 *
 * The digest covers the whole payload — request id and type included —
 * so any bit flip below the header is a DigestMismatch before any
 * field is parsed; every header byte is magic, version, a length the
 * decoder cross-checks, or the digest itself. Malformed input of any
 * kind raises a structured ProtoError(kind, offset), never undefined
 * behaviour.
 *
 * Compatibility rules (DESIGN.md section 12, mirroring section 10.3):
 *
 *  - Unknown *trailing sections* are skipped: a newer peer may append
 *    sections after the known body fields of any message; v1 writers
 *    emit a count of zero. Adding a field to an existing message is
 *    done by appending a section, never by growing the body.
 *  - Unknown *message types* decode to a Frame with an empty body and
 *    rawType preserved; a server answers them with
 *    Error{UnknownMessage} instead of dropping the connection, so old
 *    servers and new clients interoperate.
 *  - Changing the layout of an existing body requires a version bump,
 *    which old peers reject with ProtoError{BadVersion}.
 */

#ifndef DVFS_NET_PROTO_HH
#define DVFS_NET_PROTO_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

namespace dvfs::net {

/** "DVFSRPC1" as a little-endian u64. */
constexpr std::uint64_t kRpcMagic = 0x3143505253465644ULL;

/** Current protocol version. */
constexpr std::uint32_t kRpcVersion = 1;

/** Size of the fixed header preceding the payload. */
constexpr std::size_t kFrameHeaderBytes = 24;

/** Largest payload a peer must accept (bounds one trace upload). */
constexpr std::uint32_t kMaxPayloadBytes = 64u << 20;

/** High bit of the message-type word marks a response. */
constexpr std::uint32_t kResponseBit = 0x80000000u;

/** Message types (the request/response pairs share one id). */
enum class MsgType : std::uint32_t {
    UploadTrace = 1,  ///< load a .dvfstrace image into the server
    Predict = 2,      ///< all predictors at one target frequency
    WhatIfGrid = 3,   ///< all predictors across a target grid
    OptimalVf = 4,    ///< lowest V/f point within a slowdown bound
    Stats = 5,        ///< server/cache counters
    Error = 6,        ///< structured failure reply (response only)
};

/**
 * Structured failure of frame encoding/decoding.
 *
 * Every malformed input maps to exactly one kind; offset() is the
 * byte position at which the problem was detected.
 */
class ProtoError : public std::runtime_error
{
  public:
    enum class Kind {
        Truncated,      ///< input ends inside a field or section
        BadMagic,       ///< not a DVFSRPC1 frame
        BadVersion,     ///< protocol version this peer cannot parse
        BadLength,      ///< header length disagrees with the input
        Oversized,      ///< payload length exceeds kMaxPayloadBytes
        BadValue,       ///< field holds an impossible value
        DigestMismatch, ///< payload bytes do not match the digest
    };

    ProtoError(Kind kind, std::uint64_t offset, const std::string &what)
        : std::runtime_error("proto: " + what + " (at byte " +
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

/** Error{...} reply codes (application level, not decode level). */
enum class ErrorCode : std::uint32_t {
    BadRequest = 1,      ///< request decoded but is semantically invalid
    UnknownTrace = 2,    ///< no cached trace under the given digest
    UnknownMessage = 3,  ///< message type this server does not serve
    Overloaded = 4,      ///< shed under backpressure; retry later
    ShuttingDown = 5,    ///< server is draining; no new work accepted
    Internal = 6,        ///< unexpected server-side failure
};

// --- message bodies ----------------------------------------------------
//
// Each body's wire layout is one field list in proto.cc, used by both
// encodeFrame and decodeFrame; kTag is the type word it travels under.

/** The type word of a body: its message type and direction. */
struct MsgTag {
    MsgType type;
    bool response;
};

/** Load a .dvfstrace image; the reply names it by payload digest. */
struct UploadTraceReq {
    static constexpr MsgTag kTag{MsgType::UploadTrace, false};
    std::vector<std::uint8_t> image;  ///< a complete .dvfstrace file
};

struct UploadTraceResp {
    static constexpr MsgTag kTag{MsgType::UploadTrace, true};
    std::uint64_t traceDigest = 0;  ///< cache key for later queries
    std::uint32_t alreadyCached = 0;  ///< 1 when the upload was a no-op
    std::uint32_t baseMHz = 0;
    std::uint64_t totalTime = 0;
    std::uint64_t epochs = 0;
    std::uint64_t threads = 0;
};

/** Every registry predictor at one target frequency. */
struct PredictReq {
    static constexpr MsgTag kTag{MsgType::Predict, false};
    std::uint64_t traceDigest = 0;
    std::uint32_t targetMHz = 0;
};

struct PredictCell {
    std::string predictor;       ///< canonical registry spelling
    std::uint64_t predicted = 0; ///< predicted total time (ticks)
};

struct PredictResp {
    static constexpr MsgTag kTag{MsgType::Predict, true};
    std::uint64_t baseTotalTime = 0;  ///< recorded time at base freq
    std::vector<PredictCell> cells;
};

/** Every registry predictor across a target-frequency grid. */
struct WhatIfGridReq {
    static constexpr MsgTag kTag{MsgType::WhatIfGrid, false};
    std::uint64_t traceDigest = 0;
    std::vector<std::uint32_t> targetsMHz;
};

struct WhatIfGridResp {
    static constexpr MsgTag kTag{MsgType::WhatIfGrid, true};
    std::vector<std::string> predictors;
    std::vector<std::uint32_t> targetsMHz;
    /** Predicted ticks, target-major: [t * predictors + p]. */
    std::vector<std::uint64_t> predicted;
};

/**
 * Lowest operating point whose predicted slowdown vs the table's
 * highest point stays within the bound — the static energy-manager
 * query ("optimal V/f under this power cap"): on the monotone Haswell
 * V(f) curve the minimum admissible frequency is the minimum-energy
 * point.
 */
struct OptimalVfReq {
    static constexpr MsgTag kTag{MsgType::OptimalVf, false};
    std::uint64_t traceDigest = 0;
    std::uint32_t slowdownPermille = 0;  ///< e.g. 100 = 10% bound
    std::uint32_t stepMHz = 0;           ///< 0 = table default (125)
    std::string predictor;               ///< "" = DEP+BURST
};

struct OptimalVfResp {
    static constexpr MsgTag kTag{MsgType::OptimalVf, true};
    std::uint32_t chosenMHz = 0;
    std::uint64_t microvolts = 0;  ///< supply voltage at chosenMHz
    std::uint64_t predictedAtChosen = 0;
    std::uint64_t predictedAtHighest = 0;
};

struct StatsReq {
    static constexpr MsgTag kTag{MsgType::Stats, false};
};

/** Server counters; all cumulative since process start. */
struct StatsResp {
    static constexpr MsgTag kTag{MsgType::Stats, true};
    std::uint64_t requests = 0;       ///< frames decoded
    std::uint64_t responses = 0;      ///< non-error replies sent
    std::uint64_t errors = 0;         ///< Error replies sent
    std::uint64_t tracesCached = 0;   ///< live cache entries
    std::uint64_t cacheBytes = 0;     ///< bytes held by the cache
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t cacheEvictions = 0;
    std::uint64_t shedOverload = 0;   ///< requests shed by backpressure
    std::uint64_t batches = 0;        ///< pool dispatch batches run
    std::uint64_t maxBatch = 0;       ///< largest batch so far
};

struct ErrorResp {
    static constexpr MsgTag kTag{MsgType::Error, true};
    std::uint32_t code = 0;    ///< ErrorCode
    std::uint64_t offset = 0;  ///< decode position when applicable
    std::string message;
};

/** An Error reply body. */
ErrorResp errorResp(ErrorCode code, std::uint64_t offset,
                    std::string message);

/** Unknown message type: body skipped, rawType preserved. */
using Body =
    std::variant<std::monostate, UploadTraceReq, UploadTraceResp,
                 PredictReq, PredictResp, WhatIfGridReq, WhatIfGridResp,
                 OptimalVfReq, OptimalVfResp, StatsReq, StatsResp,
                 ErrorResp>;

/** One decoded (or to-be-encoded) message. */
struct Frame {
    std::uint64_t requestId = 0;
    bool isResponse = false;
    /** MsgType value without the response bit. */
    std::uint32_t rawType = 0;
    Body body;

    MsgType type() const { return static_cast<MsgType>(rawType); }

    /** Build a request/response frame with the type derived from @p b. */
    static Frame request(std::uint64_t id, Body b);
    static Frame response(std::uint64_t id, Body b);
};

/**
 * Serialize @p frame to a complete wire image (header + payload).
 *
 * @throws ProtoError{Oversized} if the payload exceeds
 *         kMaxPayloadBytes: no peer could read the frame.
 */
std::vector<std::uint8_t> encodeFrame(const Frame &frame);

/**
 * Validate a frame header and return its payload length.
 *
 * For stream peers: read kFrameHeaderBytes, call this, then read the
 * returned number of payload bytes and hand both to decodeFrame.
 *
 * @throws ProtoError{BadMagic, BadVersion, Oversized, Truncated}
 */
std::uint32_t peekPayloadLength(const std::uint8_t *header,
                                std::size_t size);

/**
 * Decode a complete frame image.
 *
 * @throws ProtoError on any malformed input (see above).
 */
Frame decodeFrame(const std::uint8_t *data, std::size_t size);
Frame decodeFrame(const std::vector<std::uint8_t> &image);

} // namespace dvfs::net

#endif // DVFS_NET_PROTO_HH
