#include "net/proto.hh"

#include "net/wire.hh"

namespace dvfs::net {

namespace {

/** Maps shared-cursor failures onto structured ProtoErrors. */
struct ProtoWirePolicy {
    [[noreturn]] static void
    truncated(std::uint64_t offset, const char *what)
    {
        throw ProtoError(ProtoError::Kind::Truncated, offset, what);
    }

    [[noreturn]] static void
    badValue(std::uint64_t offset, const char *what)
    {
        throw ProtoError(ProtoError::Kind::BadValue, offset, what);
    }
};

using Cursor = BasicCursor<ProtoWirePolicy>;

void
checkZero(std::uint32_t v, std::uint64_t offset, const char *what)
{
    if (v != 0) {
        throw ProtoError(ProtoError::Kind::BadValue, offset,
                         std::string("reserved field ") + what +
                             " is nonzero");
    }
}

/** Range-check a count field against the bytes that must back it. */
void
checkCount(const Cursor &c, std::uint64_t count, std::uint64_t min_bytes,
           const char *what)
{
    if (min_bytes != 0 && count > c.remaining() / min_bytes) {
        throw ProtoError(ProtoError::Kind::BadValue, c.offset(),
                         std::string(what) +
                             " count exceeds the payload's bytes");
    }
}

std::uint32_t
nonZeroMHz(Cursor &c, const char *what)
{
    const std::uint32_t mhz = c.u32();
    if (mhz == 0) {
        throw ProtoError(ProtoError::Kind::BadValue, c.offset(),
                         std::string(what) + " frequency is zero");
    }
    return mhz;
}

// --- body encoders -----------------------------------------------------

void
encodeBody(Encoder &e, const UploadTraceReq &m)
{
    e.u64(m.image.size());
    e.raw(m.image.data(), m.image.size());
}

void
encodeBody(Encoder &e, const UploadTraceResp &m)
{
    e.u64(m.traceDigest);
    e.u32(m.alreadyCached);
    e.u32(m.baseMHz);
    e.u64(m.totalTime);
    e.u64(m.epochs);
    e.u64(m.threads);
}

void
encodeBody(Encoder &e, const PredictReq &m)
{
    e.u64(m.traceDigest);
    e.u32(m.targetMHz);
    e.u32(0);
}

void
encodeBody(Encoder &e, const PredictResp &m)
{
    e.u64(m.baseTotalTime);
    e.varu64(m.cells.size());
    for (const PredictCell &c : m.cells) {
        e.varu64(c.predictor.size());
        e.raw(reinterpret_cast<const std::uint8_t *>(
                  c.predictor.data()),
              c.predictor.size());
        e.u64(c.predicted);
    }
}

void
encodeBody(Encoder &e, const WhatIfGridReq &m)
{
    e.u64(m.traceDigest);
    e.varu64(m.targetsMHz.size());
    for (std::uint32_t t : m.targetsMHz)
        e.u32(t);
}

void
encodeBody(Encoder &e, const WhatIfGridResp &m)
{
    e.varu64(m.predictors.size());
    for (const std::string &p : m.predictors) {
        e.varu64(p.size());
        e.raw(reinterpret_cast<const std::uint8_t *>(p.data()),
              p.size());
    }
    e.varu64(m.targetsMHz.size());
    for (std::uint32_t t : m.targetsMHz)
        e.u32(t);
    for (std::uint64_t v : m.predicted)
        e.u64(v);
}

void
encodeBody(Encoder &e, const OptimalVfReq &m)
{
    e.u64(m.traceDigest);
    e.u32(m.slowdownPermille);
    e.u32(m.stepMHz);
    e.str(m.predictor);
}

void
encodeBody(Encoder &e, const OptimalVfResp &m)
{
    e.u32(m.chosenMHz);
    e.u32(0);
    e.u64(m.microvolts);
    e.u64(m.predictedAtChosen);
    e.u64(m.predictedAtHighest);
}

void
encodeBody(Encoder &, const StatsReq &)
{
}

void
encodeBody(Encoder &e, const StatsResp &m)
{
    e.u64(m.requests);
    e.u64(m.responses);
    e.u64(m.errors);
    e.u64(m.tracesCached);
    e.u64(m.cacheBytes);
    e.u64(m.cacheHits);
    e.u64(m.cacheMisses);
    e.u64(m.cacheEvictions);
    e.u64(m.shedOverload);
    e.u64(m.batches);
    e.u64(m.maxBatch);
}

void
encodeBody(Encoder &e, const ErrorResp &m)
{
    e.u32(m.code);
    e.u32(0);
    e.u64(m.offset);
    e.str(m.message);
}

// --- body decoders -----------------------------------------------------

std::string
varStr(Cursor &c, const char *what)
{
    const std::uint64_t n = c.varu64();
    checkCount(c, n, 1, what);
    const std::uint8_t *p = c.raw(n);
    return std::string(reinterpret_cast<const char *>(p),
                       static_cast<std::size_t>(n));
}

UploadTraceReq
decodeUploadTraceReq(Cursor &c)
{
    UploadTraceReq m;
    const std::uint64_t n = c.u64();
    checkCount(c, n, 1, "trace image byte");
    const std::uint8_t *p = c.raw(n);
    m.image.assign(p, p + n);
    return m;
}

UploadTraceResp
decodeUploadTraceResp(Cursor &c)
{
    UploadTraceResp m;
    m.traceDigest = c.u64();
    m.alreadyCached = c.u32();
    if (m.alreadyCached > 1) {
        throw ProtoError(ProtoError::Kind::BadValue, c.offset(),
                         "uploadTrace.alreadyCached is not a boolean");
    }
    m.baseMHz = c.u32();
    m.totalTime = c.u64();
    m.epochs = c.u64();
    m.threads = c.u64();
    return m;
}

PredictReq
decodePredictReq(Cursor &c)
{
    PredictReq m;
    m.traceDigest = c.u64();
    m.targetMHz = nonZeroMHz(c, "predict.target");
    checkZero(c.u32(), c.offset(), "predict.pad");
    return m;
}

PredictResp
decodePredictResp(Cursor &c)
{
    PredictResp m;
    m.baseTotalTime = c.u64();
    const std::uint64_t n = c.varu64();
    checkCount(c, n, 1 + 8, "predict cell");
    m.cells.resize(static_cast<std::size_t>(n));
    for (PredictCell &cell : m.cells) {
        cell.predictor = varStr(c, "predictor name byte");
        cell.predicted = c.u64();
    }
    return m;
}

WhatIfGridReq
decodeWhatIfGridReq(Cursor &c)
{
    WhatIfGridReq m;
    m.traceDigest = c.u64();
    const std::uint64_t n = c.varu64();
    checkCount(c, n, 4, "target");
    m.targetsMHz.resize(static_cast<std::size_t>(n));
    for (std::uint32_t &t : m.targetsMHz)
        t = nonZeroMHz(c, "whatIfGrid.target");
    return m;
}

WhatIfGridResp
decodeWhatIfGridResp(Cursor &c)
{
    WhatIfGridResp m;
    const std::uint64_t np = c.varu64();
    checkCount(c, np, 1, "predictor");
    m.predictors.resize(static_cast<std::size_t>(np));
    for (std::string &p : m.predictors)
        p = varStr(c, "predictor name byte");
    const std::uint64_t nt = c.varu64();
    checkCount(c, nt, 4, "target");
    m.targetsMHz.resize(static_cast<std::size_t>(nt));
    for (std::uint32_t &t : m.targetsMHz)
        t = nonZeroMHz(c, "whatIfGrid.target");
    if (np != 0 && nt > c.remaining() / 8 / np) {
        throw ProtoError(ProtoError::Kind::BadValue, c.offset(),
                         "whatIfGrid cell count exceeds the "
                         "payload's bytes");
    }
    m.predicted.resize(static_cast<std::size_t>(np * nt));
    for (std::uint64_t &v : m.predicted)
        v = c.u64();
    return m;
}

OptimalVfReq
decodeOptimalVfReq(Cursor &c)
{
    OptimalVfReq m;
    m.traceDigest = c.u64();
    m.slowdownPermille = c.u32();
    m.stepMHz = c.u32();
    m.predictor = c.str();
    return m;
}

OptimalVfResp
decodeOptimalVfResp(Cursor &c)
{
    OptimalVfResp m;
    m.chosenMHz = nonZeroMHz(c, "optimalVf.chosen");
    checkZero(c.u32(), c.offset(), "optimalVf.pad");
    m.microvolts = c.u64();
    m.predictedAtChosen = c.u64();
    m.predictedAtHighest = c.u64();
    return m;
}

StatsResp
decodeStatsResp(Cursor &c)
{
    StatsResp m;
    m.requests = c.u64();
    m.responses = c.u64();
    m.errors = c.u64();
    m.tracesCached = c.u64();
    m.cacheBytes = c.u64();
    m.cacheHits = c.u64();
    m.cacheMisses = c.u64();
    m.cacheEvictions = c.u64();
    m.shedOverload = c.u64();
    m.batches = c.u64();
    m.maxBatch = c.u64();
    return m;
}

ErrorResp
decodeErrorResp(Cursor &c)
{
    ErrorResp m;
    m.code = c.u32();
    if (m.code == 0 ||
        m.code > static_cast<std::uint32_t>(ErrorCode::Internal)) {
        throw ProtoError(ProtoError::Kind::BadValue, c.offset(),
                         "error.code is not an ErrorCode");
    }
    checkZero(c.u32(), c.offset(), "error.pad");
    m.offset = c.u64();
    m.message = c.str();
    return m;
}

Body
decodeBody(Cursor &c, std::uint32_t raw_type, bool is_response)
{
    switch (static_cast<MsgType>(raw_type)) {
      case MsgType::UploadTrace:
        return is_response ? Body(decodeUploadTraceResp(c))
                           : Body(decodeUploadTraceReq(c));
      case MsgType::Predict:
        return is_response ? Body(decodePredictResp(c))
                           : Body(decodePredictReq(c));
      case MsgType::WhatIfGrid:
        return is_response ? Body(decodeWhatIfGridResp(c))
                           : Body(decodeWhatIfGridReq(c));
      case MsgType::OptimalVf:
        return is_response ? Body(decodeOptimalVfResp(c))
                           : Body(decodeOptimalVfReq(c));
      case MsgType::Stats:
        return is_response ? Body(decodeStatsResp(c)) : Body(StatsReq{});
      case MsgType::Error:
        if (is_response)
            return Body(decodeErrorResp(c));
        throw ProtoError(ProtoError::Kind::BadValue, c.offset(),
                         "Error message with the request direction");
      default:
        // Unknown message type: a newer peer's extension. The digest
        // already vouched for the bytes; skip the body so the caller
        // can answer Error{UnknownMessage} instead of disconnecting.
        c.skip(c.remaining());
        return Body(std::monostate{});
    }
}

/** Skip the trailing-section list (forward-compat extension point). */
void
skipTrailingSections(Cursor &c)
{
    const std::uint32_t sections = c.u32();
    for (std::uint32_t s = 0; s < sections; ++s) {
        c.u32();  // id: every id is skippable in v1
        checkZero(c.u32(), c.offset(), "section.reserved");
        const std::uint64_t length = c.u64();
        if (length > c.remaining()) {
            throw ProtoError(ProtoError::Kind::Truncated, c.offset(),
                             "section length exceeds the payload");
        }
        c.skip(length);
    }
}

std::uint32_t
rawTypeOf(const Body &body, bool &is_response)
{
    struct Typer {
        bool resp = false;
        std::uint32_t
        operator()(const std::monostate &) const
        {
            return 0;
        }
        std::uint32_t
        type(MsgType t, bool r)
        {
            resp = r;
            return static_cast<std::uint32_t>(t);
        }
        std::uint32_t operator()(const UploadTraceReq &) { return type(MsgType::UploadTrace, false); }
        std::uint32_t operator()(const UploadTraceResp &) { return type(MsgType::UploadTrace, true); }
        std::uint32_t operator()(const PredictReq &) { return type(MsgType::Predict, false); }
        std::uint32_t operator()(const PredictResp &) { return type(MsgType::Predict, true); }
        std::uint32_t operator()(const WhatIfGridReq &) { return type(MsgType::WhatIfGrid, false); }
        std::uint32_t operator()(const WhatIfGridResp &) { return type(MsgType::WhatIfGrid, true); }
        std::uint32_t operator()(const OptimalVfReq &) { return type(MsgType::OptimalVf, false); }
        std::uint32_t operator()(const OptimalVfResp &) { return type(MsgType::OptimalVf, true); }
        std::uint32_t operator()(const StatsReq &) { return type(MsgType::Stats, false); }
        std::uint32_t operator()(const StatsResp &) { return type(MsgType::Stats, true); }
        std::uint32_t operator()(const ErrorResp &) { return type(MsgType::Error, true); }
    } typer;
    const std::uint32_t raw = std::visit(typer, body);
    is_response = typer.resp;
    return raw;
}

} // namespace

const char *
ProtoError::kindName(Kind kind)
{
    switch (kind) {
      case Kind::Truncated: return "Truncated";
      case Kind::BadMagic: return "BadMagic";
      case Kind::BadVersion: return "BadVersion";
      case Kind::BadLength: return "BadLength";
      case Kind::Oversized: return "Oversized";
      case Kind::BadValue: return "BadValue";
      case Kind::DigestMismatch: return "DigestMismatch";
    }
    return "?";
}

Frame
Frame::request(std::uint64_t id, Body b)
{
    Frame f;
    f.requestId = id;
    f.body = std::move(b);
    f.rawType = rawTypeOf(f.body, f.isResponse);
    return f;
}

Frame
Frame::response(std::uint64_t id, Body b)
{
    return request(id, std::move(b));
}

std::vector<std::uint8_t>
encodeFrame(const Frame &frame)
{
    bool is_response = false;
    std::uint32_t raw = rawTypeOf(frame.body, is_response);
    if (raw == 0) {
        // An unknown-type frame round-trips its raw type; there is no
        // body to re-encode, which is fine — only tests and proxies
        // ever re-encode one.
        raw = frame.rawType;
        is_response = frame.isResponse;
    }

    Encoder payload;
    payload.u64(frame.requestId);
    payload.u32(raw | (is_response ? kResponseBit : 0));
    payload.u32(0);
    std::visit(
        [&payload](const auto &body) {
            using T = std::decay_t<decltype(body)>;
            if constexpr (!std::is_same_v<T, std::monostate>)
                encodeBody(payload, body);
        },
        frame.body);
    payload.u32(0);  // trailing-section count (none in v1)

    Encoder file;
    file.u64(kRpcMagic);
    file.u32(kRpcVersion);
    file.u32(static_cast<std::uint32_t>(payload.bytes().size()));
    file.u64(fnv1aBytes(payload.bytes().data(), payload.bytes().size()));
    file.raw(payload.bytes().data(), payload.bytes().size());
    return std::move(file.bytes());
}

std::uint32_t
peekPayloadLength(const std::uint8_t *header, std::size_t size)
{
    if (size < kFrameHeaderBytes) {
        throw ProtoError(ProtoError::Kind::Truncated, size,
                         "input smaller than the frame header");
    }
    Cursor c(header, kFrameHeaderBytes, 0);
    if (c.u64() != kRpcMagic) {
        throw ProtoError(ProtoError::Kind::BadMagic, 0,
                         "not a DVFSRPC1 frame");
    }
    const std::uint32_t version = c.u32();
    if (version != kRpcVersion) {
        throw ProtoError(ProtoError::Kind::BadVersion, 8,
                         "unsupported protocol version " +
                             std::to_string(version));
    }
    const std::uint32_t length = c.u32();
    if (length > kMaxPayloadBytes) {
        throw ProtoError(ProtoError::Kind::Oversized, 12,
                         "payload length " + std::to_string(length) +
                             " exceeds the frame cap");
    }
    return length;
}

Frame
decodeFrame(const std::uint8_t *data, std::size_t size)
{
    const std::uint32_t length = peekPayloadLength(data, size);
    if (size != kFrameHeaderBytes + length) {
        throw ProtoError(size < kFrameHeaderBytes + length
                             ? ProtoError::Kind::Truncated
                             : ProtoError::Kind::BadLength,
                         12,
                         "header length disagrees with the input size");
    }

    Cursor header(data, kFrameHeaderBytes, 0);
    header.skip(16);
    const std::uint64_t stored_digest = header.u64();

    const std::uint8_t *payload = data + kFrameHeaderBytes;
    if (fnv1aBytes(payload, length) != stored_digest) {
        throw ProtoError(ProtoError::Kind::DigestMismatch, 16,
                         "payload digest mismatch (corrupt frame)");
    }

    // The digest has vouched for every payload byte; parse fields.
    Cursor c(payload, length, kFrameHeaderBytes);
    Frame frame;
    frame.requestId = c.u64();
    const std::uint32_t type_word = c.u32();
    frame.isResponse = (type_word & kResponseBit) != 0;
    frame.rawType = type_word & ~kResponseBit;
    checkZero(c.u32(), c.offset(), "frame.reserved");
    frame.body = decodeBody(c, frame.rawType, frame.isResponse);
    if (std::holds_alternative<std::monostate>(frame.body)) {
        // Unknown type: the body skip consumed everything, trailing
        // sections included.
        return frame;
    }
    skipTrailingSections(c);
    if (c.remaining() != 0) {
        throw ProtoError(ProtoError::Kind::BadValue, c.offset(),
                         "trailing bytes after the last section");
    }
    return frame;
}

Frame
decodeFrame(const std::vector<std::uint8_t> &image)
{
    return decodeFrame(image.data(), image.size());
}

} // namespace dvfs::net
