/**
 * @file
 * Trace reader robustness: malformed input must always raise a
 * structured TraceError — never UB, never a silently wrong record.
 *
 * The core property is exhaustive single-byte fuzz: XOR any one byte
 * of a valid image and decoding must throw. This holds by
 * construction — the header digest covers every payload byte, so any
 * payload flip is a DigestMismatch, and every header byte is either
 * magic, version, a must-be-zero reserved field or the digest itself —
 * and the test pins that construction against regressions (e.g. a
 * future field the digest forgets to cover). Truncation at every
 * length and targeted structural corruptions are covered separately,
 * as is the one mutation that must NOT fail: an unknown or retired
 * section id with a recomputed digest (forward and backward
 * compatibility).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "exp/experiment.hh"
#include "net/wire.hh"
#include "reference_fnv.hh"
#include "test_util.hh"
#include "trace/reader.hh"
#include "trace/writer.hh"
#include "wl/builder.hh"

using namespace dvfs;
using trace::TraceError;

namespace {

wl::WorkloadParams
sampleParams()
{
    auto params = wl::syntheticSmall(3, 60);
    params.lockProb = 0.3;
    return params;
}

/** A small but fully-populated image. */
const std::vector<std::uint8_t> &
sampleImage()
{
    static std::vector<std::uint8_t> image = [] {
        auto out = exp::runFixed(sampleParams(), Frequency::ghz(1.0));
        return trace::encodeTrace(out.record, {"fuzz", 42});
    }();
    return image;
}

/**
 * The same run's sync events in the layout of the retired Events
 * section (id 5): u64 count, then per event u64 tick, u32 kind,
 * u32 tid, u32 futex, u32 zero.
 */
std::vector<std::uint8_t>
retiredEventsBody()
{
    wl::BenchInstance inst = wl::buildBenchmark(
        sampleParams(), wl::defaultSystemConfig(Frequency::ghz(1.0)));
    test::TraceCollector trace;
    inst.sys->addListener(&trace);
    inst.sys->run();

    net::Encoder e;
    e.u64(trace.events.size());
    for (const os::SyncEvent &ev : trace.events) {
        e.u64(ev.tick);
        e.u32(static_cast<std::uint32_t>(ev.kind));
        e.u32(ev.tid);
        e.u32(ev.futex);
        e.u32(0);
    }
    return std::move(e.bytes());
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
    sim::ReferenceFnv1a h;
    h.mixBytes(image.data() + trace::kTraceHeaderBytes,
               image.size() - trace::kTraceHeaderBytes);
    storeU64(image, 16, h.digest());
}

} // namespace

TEST(TraceErrors, EveryByteFlipIsDetected)
{
    const auto &good = sampleImage();
    // A decode of the pristine image must succeed (guards the fixture).
    ASSERT_NO_THROW(trace::decodeTrace(good));

    for (std::size_t off = 0; off < good.size(); ++off) {
        auto bad = good;
        bad[off] ^= 0x01;
        EXPECT_THROW(trace::decodeTrace(bad), TraceError)
            << "single-bit flip at offset " << off << " not detected";
    }
}

TEST(TraceErrors, EveryTruncationIsDetected)
{
    const auto &good = sampleImage();
    for (std::size_t len = 0; len < good.size(); ++len) {
        std::vector<std::uint8_t> bad(good.begin(), good.begin() + len);
        EXPECT_THROW(trace::decodeTrace(bad), TraceError)
            << "truncation to " << len << " bytes not detected";
    }
}

TEST(TraceErrors, StructuredKinds)
{
    const auto &good = sampleImage();

    {
        auto bad = good;
        storeU64(bad, 0, 0x1122334455667788ull);
        try {
            trace::decodeTrace(bad);
            FAIL() << "bad magic accepted";
        } catch (const TraceError &e) {
            EXPECT_EQ(e.kind(), TraceError::Kind::BadMagic);
        }
    }
    {
        auto bad = good;
        bad[8] = static_cast<std::uint8_t>(trace::kTraceVersion + 1);
        try {
            trace::decodeTrace(bad);
            FAIL() << "future version accepted";
        } catch (const TraceError &e) {
            EXPECT_EQ(e.kind(), TraceError::Kind::BadVersion);
        }
    }
    {
        auto bad = good;
        bad[12] = 0xff;  // reserved header field
        try {
            trace::decodeTrace(bad);
            FAIL() << "nonzero reserved field accepted";
        } catch (const TraceError &e) {
            EXPECT_EQ(e.kind(), TraceError::Kind::BadValue);
        }
    }
    {
        auto bad = good;
        storeU64(bad, 16, loadU64(bad, 16) ^ 1);
        try {
            trace::decodeTrace(bad);
            FAIL() << "wrong digest accepted";
        } catch (const TraceError &e) {
            EXPECT_EQ(e.kind(), TraceError::Kind::DigestMismatch);
        }
    }
    {
        // Payload flip with the digest resealed: the digest no longer
        // protects it, so a structural check must catch it instead.
        // Byte 28 is the first section's id (Meta) — make it an id the
        // reader skips, removing a required section.
        auto bad = good;
        bad[28] = 0x7f;
        resealDigest(bad);
        try {
            trace::decodeTrace(bad);
            FAIL() << "missing Meta section accepted";
        } catch (const TraceError &e) {
            EXPECT_EQ(e.kind(), TraceError::Kind::MissingSection);
        }
    }
    {
        std::vector<std::uint8_t> empty;
        try {
            trace::decodeTrace(empty);
            FAIL() << "empty input accepted";
        } catch (const TraceError &e) {
            EXPECT_EQ(e.kind(), TraceError::Kind::Truncated);
        }
    }
}

TEST(TraceErrors, ErrorsCarryOffsetAndKindName)
{
    auto bad = sampleImage();
    storeU64(bad, 16, loadU64(bad, 16) ^ 1);
    try {
        trace::decodeTrace(bad);
        FAIL();
    } catch (const TraceError &e) {
        EXPECT_STREQ(TraceError::kindName(e.kind()), "DigestMismatch");
        EXPECT_NE(std::string(e.what()).find("digest"),
                  std::string::npos);
        EXPECT_EQ(e.offset(), 16u);  // detected at the header digest
    }
    EXPECT_STREQ(TraceError::kindName(TraceError::Kind::Truncated),
                 "Truncated");
}

TEST(TraceErrors, UnknownSectionIsSkipped)
{
    // Forward compatibility: a future writer may append sections this
    // reader does not know. Backward compatibility: older writers
    // appended the now retired Events section (id 5). Append either
    // (valid digest) and the image must still decode to the same
    // record.
    const auto &good = sampleImage();
    auto before = trace::decodeTrace(good);

    const std::pair<std::uint32_t, std::vector<std::uint8_t>> sections[] = {
        {0x7f, {0xde, 0xad, 0xbe, 0xef}},
        {5, retiredEventsBody()},
    };
    for (const auto &[id, body] : sections) {
        auto extended = good;
        // Bump the section count (u32 at the start of the payload).
        const std::size_t count_off = trace::kTraceHeaderBytes;
        extended[count_off] =
            static_cast<std::uint8_t>(extended[count_off] + 1);
        // Append: id, reserved=0, u64 length, body.
        net::Encoder tail;
        tail.u32(id);
        tail.u32(0);
        tail.u64(body.size());
        extended.insert(extended.end(), tail.bytes().begin(),
                        tail.bytes().end());
        extended.insert(extended.end(), body.begin(), body.end());
        resealDigest(extended);

        auto after = trace::decodeTrace(extended);
        EXPECT_EQ(after.record().totalTime, before.record().totalTime)
            << "section " << id;
        EXPECT_EQ(after.record().epochs.size(),
                  before.record().epochs.size())
            << "section " << id;
        EXPECT_EQ(after.meta().workload, before.meta().workload)
            << "section " << id;
    }
}

TEST(TraceErrors, MissingFileIsIoError)
{
    try {
        trace::readTraceFile("/nonexistent/definitely_missing.dvfstrace");
        FAIL();
    } catch (const TraceError &e) {
        EXPECT_EQ(e.kind(), TraceError::Kind::Io);
    }
}
