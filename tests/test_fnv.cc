/**
 * @file
 * sim::Fnv1a folds zero-byte runs in one multiply; these tests hold it
 * to the byte-serial FNV-1a in tests/reference_fnv.hh. Standard
 * FNV-1a-64 vectors, every zero-byte mask of a word, byte ranges at
 * every short length and alignment, the bit patterns mixDouble must
 * not round, runs of whole zero words, and run fingerprints folded by
 * the oracle: a sampled run, and records of random zero-elided rows.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string_view>
#include <vector>

#include "exp/experiment.hh"
#include "exp/sweep/fingerprint.hh"
#include "reference_fnv.hh"
#include "sim/fnv.hh"
#include "sim/rng.hh"
#include "wl/suite.hh"

using namespace dvfs;
using sim::Fnv1a;
using sim::ReferenceFnv1a;

namespace {

template <typename Hasher>
std::uint64_t
digestOf(std::string_view s)
{
    Hasher h;
    h.mixBytes(reinterpret_cast<const std::uint8_t *>(s.data()), s.size());
    return h.digest();
}

template <typename Hasher>
std::uint64_t
wordDigest(std::uint64_t seed, std::uint64_t v)
{
    Hasher h;
    h.mix(seed);
    h.mix(v);
    return h.digest();
}

/** Keep the bytes of @p v whose bit is set in @p mask, zero the rest. */
std::uint64_t
maskBytes(std::uint64_t v, unsigned mask)
{
    std::uint64_t out = 0;
    for (int i = 0; i < 8; ++i) {
        if (mask & (1u << i))
            out |= v & (std::uint64_t{0xff} << (i * 8));
    }
    return out;
}

/** Every byte nonzero. */
std::uint64_t
denseWord(sim::Rng &rng)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= rng.nextRange(1, 255) << (i * 8);
    return v;
}

} // namespace

TEST(Fnv1a, StandardVectors)
{
    EXPECT_EQ(digestOf<Fnv1a>(""), 0xcbf29ce484222325ULL);
    EXPECT_EQ(digestOf<Fnv1a>("a"), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(digestOf<Fnv1a>("foobar"), 0x85944171f73967e8ULL);
    EXPECT_EQ(digestOf<ReferenceFnv1a>("foobar"), 0x85944171f73967e8ULL);
    // Longer than a word: one folded word, then a byte tail.
    const std::string_view s = "a longer string: words and a tail";
    EXPECT_EQ(digestOf<Fnv1a>(s), digestOf<ReferenceFnv1a>(s));
}

TEST(Fnv1a, MixMatchesOracleOnEveryZeroByteMask)
{
    sim::Rng rng(7);
    for (unsigned mask = 0; mask < 256; ++mask) {
        for (int trial = 0; trial < 64; ++trial) {
            const std::uint64_t seed = rng.next();
            const std::uint64_t v = maskBytes(denseWord(rng), mask);
            ASSERT_EQ(wordDigest<Fnv1a>(seed, v),
                      wordDigest<ReferenceFnv1a>(seed, v))
                << std::hex << "mask 0x" << mask << " word 0x" << v;
        }
    }
}

TEST(Fnv1a, MixMatchesOracleOnEdgeWords)
{
    std::vector<std::uint64_t> words = {0, ~std::uint64_t{0}};
    for (int i = 0; i < 8; ++i) {
        words.push_back(std::uint64_t{1} << (i * 8));
        words.push_back(std::uint64_t{0xff} << (i * 8));
    }
    for (std::uint64_t v : words) {
        Fnv1a h;
        ReferenceFnv1a ref;
        h.mix(v);
        ref.mix(v);
        EXPECT_EQ(h.digest(), ref.digest()) << std::hex << "word 0x" << v;
    }
}

TEST(Fnv1a, MixBytesMatchesOracleAtEveryLengthAndOffset)
{
    sim::Rng rng(11);
    // 64 + 7 usable bytes, with room to start at any offset 0-7.
    std::vector<std::uint8_t> zeroHeavy(80), dense(80);
    for (std::size_t i = 0; i < zeroHeavy.size(); ++i) {
        zeroHeavy[i] = rng.nextBool(0.15)
                           ? static_cast<std::uint8_t>(rng.nextRange(1, 255))
                           : 0;
        dense[i] = static_cast<std::uint8_t>(rng.nextRange(1, 255));
    }
    for (const auto *buf : {&zeroHeavy, &dense}) {
        for (std::size_t offset = 0; offset < 8; ++offset) {
            for (std::size_t len = 0; len <= 64; ++len) {
                Fnv1a h;
                ReferenceFnv1a ref;
                h.mixBytes(buf->data() + offset, len);
                ref.mixBytes(buf->data() + offset, len);
                ASSERT_EQ(h.digest(), ref.digest())
                    << "offset " << offset << " length " << len
                    << (buf == &dense ? " dense" : " zero-heavy");
            }
        }
    }
}

TEST(Fnv1a, MixDoubleFoldsTheExactBitPattern)
{
    const double values[] = {0.0, -0.0,
                             std::numeric_limits<double>::quiet_NaN()};
    for (double v : values) {
        Fnv1a h;
        ReferenceFnv1a ref;
        h.mixDouble(v);
        ref.mixDouble(v);
        EXPECT_EQ(h.digest(), ref.digest()) << v;
    }
    Fnv1a pos, neg;
    pos.mixDouble(0.0);
    neg.mixDouble(-0.0);
    EXPECT_NE(pos.digest(), neg.digest());
}

namespace {

/** fingerprint.cc's field order, folded by the byte-serial oracle. */
void
oracleCounters(ReferenceFnv1a &h, const uarch::PerfCounters &c)
{
    for (std::uint64_t v :
         {c.busyTime, c.instructions, c.critNonscaling, c.leadingNonscaling,
          c.stallNonscaling, c.sqFullTime, c.trueMemTime, c.computeTime,
          c.l1Hits, c.l2Hits, c.l3Hits, c.dramLoads, c.missClusters,
          c.storeBursts, c.storeLines})
        h.mix(v);
}

std::uint64_t
oracleFingerprint(const exp::FixedRunOutput &out)
{
    ReferenceFnv1a h;
    h.mix(out.freq.toMHz());
    h.mix(out.totalTime);
    h.mix(out.events);
    h.mix(out.collections);
    h.mix(out.gcTime);
    h.mix(out.allocatedBytes);
    oracleCounters(h, out.totals);
    h.mixDouble(out.energy.coreDynamic);
    h.mixDouble(out.energy.coreStatic);
    h.mixDouble(out.energy.uncore);
    h.mixDouble(out.energy.dram);
    const pred::RunRecord &rec = out.record;
    h.mix(rec.baseFreq.toMHz());
    h.mix(rec.totalTime);
    h.mix(rec.epochs.size());
    for (const auto &e : rec.epochs) {
        h.mix(e.start);
        h.mix(e.end);
        h.mix(static_cast<std::uint64_t>(e.boundary));
        h.mix(static_cast<std::uint64_t>(e.stallTid));
        h.mix(e.active.size());
        for (const auto &t : e.active) {
            h.mix(static_cast<std::uint64_t>(t.tid));
            oracleCounters(h, t.delta);
        }
    }
    h.mix(rec.threads.size());
    for (const auto &t : rec.threads) {
        h.mix(static_cast<std::uint64_t>(t.tid));
        h.mix(t.service ? 1 : 0);
        h.mix(t.spawnTick);
        h.mix(t.exitTick);
        oracleCounters(h, t.totals);
    }
    h.mix(rec.gcMarks.size());
    for (const auto &m : rec.gcMarks) {
        h.mix(m.tick);
        h.mix(m.begin ? 1 : 0);
    }
    return h.digest();
}

} // namespace

TEST(Fnv1a, SampledRunFingerprintMatchesOracleFold)
{
    exp::RunOptions opts;
    opts.mode = exp::SimMode::Sampled;
    const exp::FixedRunOutput out = exp::runFixed(
        wl::dacapoSuite().front(), Frequency::ghz(2.0), opts);
    ASSERT_FALSE(out.record.epochs.empty());
    EXPECT_EQ(exp::sweep::fingerprintRun(out), oracleFingerprint(out));
}

TEST(Fnv1a, MixZeroWordsMatchesOracleAtEveryRunLength)
{
    // k = 0..16 come from the table; longer runs take it more than once.
    for (std::size_t k = 0; k <= 40; ++k) {
        Fnv1a fast;
        ReferenceFnv1a slow;
        fast.mix(0x1234'5678'9abc'def0ULL);
        slow.mix(0x1234'5678'9abc'def0ULL);
        fast.mixZeroWords(k);
        for (std::size_t i = 0; i < k; ++i)
            slow.mix(0);
        EXPECT_EQ(fast.digest(), slow.digest()) << k << " zero words";
    }
}

TEST(Fnv1a, RecordFingerprintMatchesOracleOnRandomRowMasks)
{
    // fingerprintRun folds each run of a stored row's zero fields in
    // one multiply; the oracle folds the expanded row field by field.
    // Rows with random masks (all-zero and all-nonzero among them)
    // cover every run length and position.
    sim::Rng rng(0xf00d);
    exp::FixedRunOutput out;
    out.freq = Frequency::ghz(1.0);
    pred::RunRecord &rec = out.record;
    rec.baseFreq = out.freq;
    Tick t = 0;
    for (int e = 0; e < 200; ++e) {
        rec.epochs.open(t, t + 10, os::SyncEventKind::FutexWake,
                        os::kNoThread);
        t += 10;
        const std::uint64_t rows = rng.nextBounded(5);
        for (std::uint64_t r = 0; r < rows; ++r) {
            const unsigned mask =
                e == 0 ? 0u
                : e == 1 ? (1u << uarch::PerfCounters::kFields) - 1
                         : static_cast<unsigned>(rng.nextBounded(
                               1u << uarch::PerfCounters::kFields));
            uarch::PerfCounters::Words w{};
            for (unsigned i = 0; i < uarch::PerfCounters::kFields; ++i) {
                if (mask & (1u << i))
                    w[i] = rng.nextRange(1, ~std::uint64_t{0} - 1);
            }
            rec.epochs.addRow(static_cast<os::ThreadId>(r), w);
        }
    }
    rec.totalTime = t;
    out.totalTime = t;
    EXPECT_EQ(exp::sweep::fingerprintRun(out), oracleFingerprint(out));
}
