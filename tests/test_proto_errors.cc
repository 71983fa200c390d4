/**
 * @file
 * DVFSRPC1 robustness: malformed frames must always raise a
 * structured ProtoError — never UB, never a silently wrong message.
 *
 * Mirrors the trace reader's fuzz property (test_trace_errors.cc) for
 * every message type in the protocol: XOR any single byte of a valid
 * frame and decoding must throw (the header's four fields are all
 * load-bearing — magic, version, length cross-check, digest — and the
 * digest covers the entire payload including request id and type);
 * truncate to any length and decoding must throw. Forward
 * compatibility is the flip side: an unknown message type decodes to
 * a monostate body with the raw type preserved, and unknown trailing
 * sections are skipped, both without error.
 *
 * A canonical Predict request/response pair, and every sample frame,
 * are pinned by golden payload digest: any change to the wire
 * encoding of an existing field is a compatibility break and must
 * fail here first. A resealed-mutation fuzz pins what the body
 * decoders make of hostile bytes the digest no longer guards: the
 * kind and offset of each error, or the re-encoded frame.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "net/proto.hh"
#include "net/wire.hh"
#include "test_util.hh"

using namespace dvfs;
using net::Frame;
using net::ProtoError;

namespace {

/** One valid frame per message type, request and response alike. */
std::vector<std::pair<std::string, Frame>>
sampleFrames()
{
    std::vector<std::pair<std::string, Frame>> frames;

    net::UploadTraceReq up;
    up.image = {0x10, 0x20, 0x30, 0x40, 0x55};
    frames.emplace_back("UploadTraceReq",
                        Frame::request(7, std::move(up)));

    net::UploadTraceResp upr;
    upr.traceDigest = 0x1122334455667788ULL;
    upr.alreadyCached = 1;
    upr.baseMHz = 1000;
    upr.totalTime = 123456789;
    upr.epochs = 12;
    upr.threads = 4;
    frames.emplace_back("UploadTraceResp", Frame::response(7, upr));

    net::PredictReq pq;
    pq.traceDigest = 0xdeadbeefcafef00dULL;
    pq.targetMHz = 4000;
    frames.emplace_back("PredictReq", Frame::request(8, pq));

    net::PredictResp pr;
    pr.baseTotalTime = 1000000;
    pr.cells = {{"M+CRIT", 250000}, {"DEP+BURST", 260000}};
    frames.emplace_back("PredictResp", Frame::response(8, pr));

    net::WhatIfGridReq wq;
    wq.traceDigest = 0xdeadbeefcafef00dULL;
    wq.targetsMHz = {1000, 2000, 4000};
    frames.emplace_back("WhatIfGridReq", Frame::request(9, wq));

    net::WhatIfGridResp wr;
    wr.predictors = {"M+CRIT", "DEP+BURST"};
    wr.targetsMHz = {1000, 2000};
    wr.predicted = {11, 12, 21, 22};
    frames.emplace_back("WhatIfGridResp", Frame::response(9, wr));

    net::OptimalVfReq oq;
    oq.traceDigest = 0xdeadbeefcafef00dULL;
    oq.slowdownPermille = 100;
    oq.stepMHz = 125;
    oq.predictor = "DEP+BURST";
    frames.emplace_back("OptimalVfReq", Frame::request(10, oq));

    net::OptimalVfResp orr;
    orr.chosenMHz = 2250;
    orr.microvolts = 950000;
    orr.predictedAtChosen = 420000;
    orr.predictedAtHighest = 400000;
    frames.emplace_back("OptimalVfResp", Frame::response(10, orr));

    frames.emplace_back("StatsReq",
                        Frame::request(11, net::StatsReq{}));

    net::StatsResp sr;
    sr.requests = 100;
    sr.responses = 95;
    sr.errors = 5;
    sr.tracesCached = 3;
    sr.cacheBytes = 1 << 20;
    sr.cacheHits = 90;
    sr.cacheMisses = 10;
    sr.cacheEvictions = 1;
    sr.shedOverload = 2;
    sr.batches = 40;
    sr.maxBatch = 8;
    frames.emplace_back("StatsResp", Frame::response(11, sr));

    net::ErrorResp er;
    er.code = static_cast<std::uint32_t>(net::ErrorCode::UnknownTrace);
    er.offset = 12;
    er.message = "no cached trace";
    frames.emplace_back("ErrorResp", Frame::response(12, er));

    return frames;
}

void
storeU64(std::vector<std::uint8_t> &image, std::size_t off,
         std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        image[off + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint64_t
loadU64(const std::vector<std::uint8_t> &image, std::size_t off)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(image[off + i]) << (8 * i);
    return v;
}

/** Recompute and store the header digest over payload bytes. */
void
resealDigest(std::vector<std::uint8_t> &image)
{
    storeU64(image, 16,
             net::fnv1aBytes(image.data() + net::kFrameHeaderBytes,
                             image.size() - net::kFrameHeaderBytes));
}

} // namespace

TEST(ProtoErrors, EveryByteFlipIsDetectedForEveryMessageType)
{
    for (const auto &[name, frame] : sampleFrames()) {
        const std::vector<std::uint8_t> good = net::encodeFrame(frame);
        ASSERT_NO_THROW(net::decodeFrame(good)) << name;

        for (std::size_t off = 0; off < good.size(); ++off) {
            auto bad = good;
            bad[off] ^= 0x01;
            EXPECT_THROW(net::decodeFrame(bad), ProtoError)
                << name << ": single-bit flip at offset " << off
                << " not detected";
        }
    }
}

TEST(ProtoErrors, EveryTruncationIsDetectedForEveryMessageType)
{
    for (const auto &[name, frame] : sampleFrames()) {
        const std::vector<std::uint8_t> good = net::encodeFrame(frame);
        for (std::size_t len = 0; len < good.size(); ++len) {
            EXPECT_THROW(net::decodeFrame(good.data(), len),
                         ProtoError)
                << name << ": truncation to " << len
                << " bytes not detected";
        }
    }
}

TEST(ProtoErrors, StructuredKinds)
{
    net::PredictReq pq;
    pq.traceDigest = 1;
    pq.targetMHz = 2000;
    const auto good = net::encodeFrame(Frame::request(1, pq));

    {
        auto bad = good;
        storeU64(bad, 0, 0x1122334455667788ULL);
        try {
            net::decodeFrame(bad);
            FAIL() << "bad magic accepted";
        } catch (const ProtoError &e) {
            EXPECT_EQ(e.kind(), ProtoError::Kind::BadMagic);
            EXPECT_STREQ(ProtoError::kindName(e.kind()), "BadMagic");
        }
    }
    {
        auto bad = good;
        bad[8] = static_cast<std::uint8_t>(net::kRpcVersion + 1);
        try {
            net::decodeFrame(bad);
            FAIL() << "future version accepted";
        } catch (const ProtoError &e) {
            EXPECT_EQ(e.kind(), ProtoError::Kind::BadVersion);
        }
    }
    {
        // Header length larger than the actual input: Truncated.
        auto bad = good;
        bad[12] = static_cast<std::uint8_t>(bad[12] + 1);
        try {
            net::decodeFrame(bad);
            FAIL() << "short input accepted";
        } catch (const ProtoError &e) {
            EXPECT_EQ(e.kind(), ProtoError::Kind::Truncated);
        }
    }
    {
        // Input longer than the header length: BadLength (a stream
        // peer would be out of sync).
        auto bad = good;
        bad.push_back(0);
        try {
            net::decodeFrame(bad);
            FAIL() << "trailing garbage accepted";
        } catch (const ProtoError &e) {
            EXPECT_EQ(e.kind(), ProtoError::Kind::BadLength);
        }
    }
    {
        auto bad = good;
        storeU64(bad, 16, loadU64(bad, 16) ^ 1);
        try {
            net::decodeFrame(bad);
            FAIL() << "wrong digest accepted";
        } catch (const ProtoError &e) {
            EXPECT_EQ(e.kind(), ProtoError::Kind::DigestMismatch);
        }
    }
    {
        // Oversized claim, checked before any allocation.
        auto bad = good;
        const std::uint32_t huge = net::kMaxPayloadBytes + 1;
        for (int i = 0; i < 4; ++i)
            bad[12 + static_cast<std::size_t>(i)] =
                static_cast<std::uint8_t>(huge >> (8 * i));
        try {
            net::peekPayloadLength(bad.data(), net::kFrameHeaderBytes);
            FAIL() << "oversized payload accepted";
        } catch (const ProtoError &e) {
            EXPECT_EQ(e.kind(), ProtoError::Kind::Oversized);
        }
    }
    {
        // Reserved word after the type (payload offset 12) must be
        // zero; reseal so the digest passes and the structural check
        // has to catch it.
        auto bad = good;
        bad[net::kFrameHeaderBytes + 12] = 0xff;
        resealDigest(bad);
        try {
            net::decodeFrame(bad);
            FAIL() << "nonzero reserved field accepted";
        } catch (const ProtoError &e) {
            EXPECT_EQ(e.kind(), ProtoError::Kind::BadValue);
        }
    }
}

TEST(ProtoErrors, EncodeRefusesAPayloadOverTheCap)
{
    // No peer accepts a payload over kMaxPayloadBytes, so none is
    // written: the length is checked, never cast down to 32 bits.
    net::UploadTraceReq up;
    up.image.assign(net::kMaxPayloadBytes, 0);
    try {
        net::encodeFrame(Frame::request(1, std::move(up)));
        FAIL() << "oversized payload encoded";
    } catch (const ProtoError &e) {
        EXPECT_EQ(e.kind(), ProtoError::Kind::Oversized);
        EXPECT_EQ(e.offset(), 12u);  // the header's length field
    }
}

TEST(ProtoErrors, UnknownMessageTypeDecodesToMonostate)
{
    // A newer peer's message: type 0x7000 with an arbitrary body. The
    // frame must decode (digest vouches for the bytes), preserving the
    // raw type so the server can answer Error{UnknownMessage}.
    net::Encoder payload;
    payload.u64(77);        // request id
    payload.u32(0x7000);    // unknown type, request direction
    payload.u32(0);         // reserved
    payload.u64(0xabcdef);  // body this version cannot parse
    payload.u32(9);

    net::Encoder file;
    file.u64(net::kRpcMagic);
    file.u32(net::kRpcVersion);
    file.u32(static_cast<std::uint32_t>(payload.bytes().size()));
    file.u64(net::fnv1aBytes(payload.bytes().data(),
                             payload.bytes().size()));
    file.raw(payload.bytes().data(), payload.bytes().size());

    Frame f = net::decodeFrame(file.bytes());
    EXPECT_EQ(f.requestId, 77u);
    EXPECT_FALSE(f.isResponse);
    EXPECT_EQ(f.rawType, 0x7000u);
    EXPECT_TRUE(std::holds_alternative<std::monostate>(f.body));
}

TEST(ProtoErrors, UnknownTrailingSectionsAreSkipped)
{
    // Forward compatibility: a v1.x writer may append trailing
    // sections after the known body fields. Raise the section count,
    // append a section, reseal — the frame must decode identically.
    net::PredictReq pq;
    pq.traceDigest = 42;
    pq.targetMHz = 3000;
    auto image = net::encodeFrame(Frame::request(5, pq));

    // The trailing-section count is the last u32 of the payload.
    const std::size_t count_off = image.size() - 4;
    image[count_off] = static_cast<std::uint8_t>(image[count_off] + 1);
    const std::uint8_t tail[] = {0x7f, 0, 0, 0,  // id (unknown)
                                 0,    0, 0, 0,  // reserved
                                 4,    0, 0, 0, 0, 0, 0, 0,  // length
                                 0xde, 0xad, 0xbe, 0xef};
    image.insert(image.end(), std::begin(tail), std::end(tail));
    image[12] = static_cast<std::uint8_t>(
        image[12] + sizeof(tail));  // payload length (fits in a byte)
    resealDigest(image);

    Frame f = net::decodeFrame(image);
    const auto *req = std::get_if<net::PredictReq>(&f.body);
    ASSERT_NE(req, nullptr);
    EXPECT_EQ(req->traceDigest, 42u);
    EXPECT_EQ(req->targetMHz, 3000u);
}

TEST(ProtoErrors, RoundTripPreservesEveryField)
{
    for (const auto &[name, frame] : sampleFrames()) {
        const auto image = net::encodeFrame(frame);
        Frame back = net::decodeFrame(image);
        EXPECT_EQ(back.requestId, frame.requestId) << name;
        EXPECT_EQ(back.isResponse, frame.isResponse) << name;
        EXPECT_EQ(back.rawType, frame.rawType) << name;
        // Bit-exact round-trip: re-encoding must reproduce the image.
        EXPECT_EQ(net::encodeFrame(back), image) << name;
    }
}

TEST(ProtoErrors, GoldenPredictWireDigestsArePinned)
{
    // The canonical Predict exchange, pinned by payload digest. If
    // this test fails, the wire encoding of an existing field changed:
    // that is a protocol compatibility break and needs a version bump
    // (DESIGN.md section 12), not a new golden value.
    net::PredictReq pq;
    pq.traceDigest = 0x0123456789abcdefULL;
    pq.targetMHz = 4000;
    const auto req_image = net::encodeFrame(Frame::request(1, pq));

    net::PredictResp pr;
    pr.baseTotalTime = 4000000000ULL;
    pr.cells = {{"M+CRIT", 1100000000ULL},
                {"M+CRIT+BURST", 1050000000ULL},
                {"COOP(CRIT)", 1080000000ULL},
                {"COOP(CRIT+BURST)", 1040000000ULL},
                {"DEP", 1070000000ULL},
                {"DEP+BURST", 1030000000ULL}};
    const auto resp_image = net::encodeFrame(Frame::response(1, pr));

    const std::uint64_t req_digest = loadU64(req_image, 16);
    const std::uint64_t resp_digest = loadU64(resp_image, 16);

    EXPECT_EQ(req_digest, 0x0d35c1512027445fULL)
        << "canonical PredictReq wire digest changed";
    EXPECT_EQ(resp_digest, 0x3d83ced69a331ae2ULL)
        << "canonical PredictResp wire digest changed";
}

TEST(ProtoErrors, GoldenWireDigestsOfEverySampleFrame)
{
    // Every message type in both directions, pinned like the Predict
    // exchange above: a failure here is a wire compatibility break.
    const std::pair<const char *, std::uint64_t> golden[] = {
        {"UploadTraceReq", 0x031750038697ab59ULL},
        {"UploadTraceResp", 0x163de1e711001b93ULL},
        {"PredictReq", 0xf2380263a4a9c389ULL},
        {"PredictResp", 0x36e434c04eb16f0eULL},
        {"WhatIfGridReq", 0x0aac1c39c51fd6bcULL},
        {"WhatIfGridResp", 0x6fe7610bda38b51cULL},
        {"OptimalVfReq", 0xad1fbaa61c688444ULL},
        {"OptimalVfResp", 0xad4ec3764bf95633ULL},
        {"StatsReq", 0x024e0b0f8ed39e7bULL},
        {"StatsResp", 0x88e3e90d9a56d2c5ULL},
        {"ErrorResp", 0x87f3d39cf14561c4ULL},
    };
    const auto frames = sampleFrames();
    ASSERT_EQ(frames.size(), std::size(golden));
    for (std::size_t i = 0; i < frames.size(); ++i) {
        ASSERT_EQ(frames[i].first, golden[i].first);
        const auto image = net::encodeFrame(frames[i].second);
        EXPECT_EQ(loadU64(image, 16), golden[i].second)
            << frames[i].first << " wire digest changed: 0x" << std::hex
            << loadU64(image, 16);
    }
}

TEST(ProtoErrors, ResealedMutationOutcomesArePinned)
{
    // Each payload byte of each sample frame set to b^1, 0x00 and
    // 0xFF under a resealed digest: every outcome (error kind and
    // offset, or the re-encoded frame) folds into one pinned digest,
    // so a decoder that reorders, drops or adds a field check fails.
    sim::Fnv1a all;
    for (const auto &[name, frame] : sampleFrames()) {
        all.mix(test::resealedMutationDigest<ProtoError>(
            net::encodeFrame(frame),
            [](const std::vector<std::uint8_t> &b) {
                return net::encodeFrame(net::decodeFrame(b));
            }));
    }
    EXPECT_EQ(all.digest(), 0xaeb92416a82d9646ULL)
        << "0x" << std::hex << all.digest();
}
