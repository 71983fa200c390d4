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

/**
 * The wire layout of every message body: one field list per type, run
 * by encodeFrame with a FieldWriter and a const body, and by
 * decodeFrame with a FieldReader and a body to fill.
 */
template <class Io, class M>
void
layout(Io &io, M &m)
{
    using T = std::remove_const_t<M>;
    auto targets = [&io](auto &mhz) {
        io.list(Count::Varint, mhz, 4, "target", [&io](auto &t) {
            io.nonzero32(t, "whatIfGrid.target frequency is zero");
        });
    };
    if constexpr (std::is_same_v<T, UploadTraceReq>) {
        io.bytes(m.image, "trace image byte");
    } else if constexpr (std::is_same_v<T, UploadTraceResp>) {
        io.u64(m.traceDigest);
        io.flag32(m.alreadyCached,
                  "uploadTrace.alreadyCached is not a boolean");
        io.u32(m.baseMHz);
        io.u64(m.totalTime);
        io.u64(m.epochs);
        io.u64(m.threads);
    } else if constexpr (std::is_same_v<T, PredictReq>) {
        io.u64(m.traceDigest);
        io.nonzero32(m.targetMHz, "predict.target frequency is zero");
        io.zero32("predict.pad");
    } else if constexpr (std::is_same_v<T, PredictResp>) {
        io.u64(m.baseTotalTime);
        io.list(Count::Varint, m.cells, 1 + 8, "predict cell",
                [&io](auto &c) {
                    io.varStr(c.predictor, "predictor name byte");
                    io.u64(c.predicted);
                });
    } else if constexpr (std::is_same_v<T, WhatIfGridReq>) {
        io.u64(m.traceDigest);
        targets(m.targetsMHz);
    } else if constexpr (std::is_same_v<T, WhatIfGridResp>) {
        io.list(Count::Varint, m.predictors, 1, "predictor",
                [&io](auto &p) { io.varStr(p, "predictor name byte"); });
        targets(m.targetsMHz);
        io.items(m.predicted,
                 std::uint64_t{m.predictors.size()} * m.targetsMHz.size(),
                 8, "whatIfGrid cell", [&io](auto &v) { io.u64(v); });
    } else if constexpr (std::is_same_v<T, OptimalVfReq>) {
        io.u64(m.traceDigest);
        io.u32(m.slowdownPermille);
        io.u32(m.stepMHz);
        io.str(m.predictor);
    } else if constexpr (std::is_same_v<T, OptimalVfResp>) {
        io.nonzero32(m.chosenMHz, "optimalVf.chosen frequency is zero");
        io.zero32("optimalVf.pad");
        io.u64(m.microvolts);
        io.u64(m.predictedAtChosen);
        io.u64(m.predictedAtHighest);
    } else if constexpr (std::is_same_v<T, StatsResp>) {
        io.u64(m.requests);
        io.u64(m.responses);
        io.u64(m.errors);
        io.u64(m.tracesCached);
        io.u64(m.cacheBytes);
        io.u64(m.cacheHits);
        io.u64(m.cacheMisses);
        io.u64(m.cacheEvictions);
        io.u64(m.shedOverload);
        io.u64(m.batches);
        io.u64(m.maxBatch);
    } else if constexpr (std::is_same_v<T, ErrorResp>) {
        io.u32In(m.code, 1, static_cast<std::uint32_t>(ErrorCode::Internal),
                 "error.code is not an ErrorCode");
        io.zero32("error.pad");
        io.u64(m.offset);
        io.str(m.message);
    } else {
        static_assert(std::is_same_v<T, StatsReq>, "a body without layout");
    }
}

/** The type word of @p tag: the message type, plus the response bit. */
std::uint32_t
typeWord(MsgTag tag)
{
    return static_cast<std::uint32_t>(tag.type) |
           (tag.response ? kResponseBit : 0);
}

/**
 * Decode the body that travels under @p type_word: the first of
 * Body's alternatives from index I whose tag it is.
 */
template <std::size_t I = 1>
Body
decodeBody(Cursor &c, std::uint32_t type_word)
{
    if constexpr (I < std::variant_size_v<Body>) {
        using T = std::variant_alternative_t<I, Body>;
        if (type_word != typeWord(T::kTag))
            return decodeBody<I + 1>(c, type_word);
        T m;
        FieldReader<ProtoWirePolicy> io(c);
        layout(io, m);
        return m;
    } else {
        if (type_word == static_cast<std::uint32_t>(MsgType::Error)) {
            throw ProtoError(ProtoError::Kind::BadValue, c.offset(),
                             "Error message with the request direction");
        }
        // Unknown message type: a newer peer's extension. The digest
        // already vouched for the bytes; skip the body so the caller
        // can answer Error{UnknownMessage} instead of disconnecting.
        c.skip(c.remaining());
        return std::monostate{};
    }
}

} // namespace

ErrorResp
errorResp(ErrorCode code, std::uint64_t offset, std::string message)
{
    ErrorResp e;
    e.code = static_cast<std::uint32_t>(code);
    e.offset = offset;
    e.message = std::move(message);
    return e;
}

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
    std::visit(
        [&f](const auto &body) {
            using T = std::decay_t<decltype(body)>;
            if constexpr (!std::is_same_v<T, std::monostate>) {
                f.rawType = static_cast<std::uint32_t>(T::kTag.type);
                f.isResponse = T::kTag.response;
            }
        },
        f.body);
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
    Encoder e;
    e.u64(kRpcMagic);
    e.u32(kRpcVersion);
    e.u32(0);  // payload length and digest, patched below
    e.u64(0);
    e.u64(frame.requestId);
    std::visit(
        [&](const auto &body) {
            using T = std::decay_t<decltype(body)>;
            if constexpr (std::is_same_v<T, std::monostate>) {
                // An unknown-type frame round-trips its raw type; there
                // is no body to re-encode, which is fine — only tests
                // and proxies ever re-encode one.
                e.u32(frame.rawType |
                      (frame.isResponse ? kResponseBit : 0));
                e.u32(0);
            } else {
                e.u32(typeWord(T::kTag));
                e.u32(0);
                FieldWriter io(e);
                layout(io, body);
            }
        },
        frame.body);
    e.u32(0);  // trailing-section count: none in v1

    const std::size_t length = e.bytes().size() - kFrameHeaderBytes;
    if (length > kMaxPayloadBytes) {
        throw ProtoError(ProtoError::Kind::Oversized, 12,
                         "payload length " + std::to_string(length) +
                             " exceeds the frame cap");
    }
    e.patch(12, static_cast<std::uint32_t>(length));
    e.patch(16, fnv1aBytes(e.bytes().data() + kFrameHeaderBytes, length));
    return std::move(e.bytes());
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
    c.zero32("frame.reserved");
    frame.body = decodeBody(c, type_word);
    if (std::holds_alternative<std::monostate>(frame.body)) {
        // Unknown type: the body skip consumed everything, trailing
        // sections included.
        return frame;
    }
    // Trailing sections: every id is skippable in v1.
    c.sections([](std::uint32_t, Cursor &) {});
    return frame;
}

Frame
decodeFrame(const std::vector<std::uint8_t> &image)
{
    return decodeFrame(image.data(), image.size());
}

} // namespace dvfs::net
