/**
 * @file
 * The zero-elided epoch row store, and pins of the largest record it
 * holds: avrora (fine-grained locking, about 66k epochs and 256k rows
 * per cell). The pinned values are perfbench's (perfbench/pins.txt),
 * so the tier-1 suite gates the layout on the record that stresses it
 * most.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "exp/experiment.hh"
#include "exp/sweep/fingerprint.hh"
#include "pred/epoch_store.hh"
#include "trace/reader.hh"
#include "trace/writer.hh"
#include "wl/suite.hh"

using namespace dvfs;
using pred::EpochStore;
using pred::EpochThread;
using uarch::PerfCounters;

namespace {

/** avrora at 1 GHz, seed 42, exact: recorded once per test binary. */
const exp::FixedRunOutput &
avroraExact()
{
    static const exp::FixedRunOutput out = exp::runFixed(
        wl::benchmarkByName("avrora"), Frequency::mhz(1000));
    return out;
}

} // namespace

TEST(EpochStore, WordsFollowDeclarationOrder)
{
    // Mask bit i is PerfCounters field i in declaration order, which
    // is also the order the fingerprint and the trace format use.
    uarch::PerfCounters c;
    c.busyTime = 1;
    c.computeTime = 8;
    c.storeLines = 15;
    const PerfCounters::Words w = c.words();
    EXPECT_EQ(w[0], 1u);
    EXPECT_EQ(w[7], 8u);
    EXPECT_EQ(w[14], 15u);

    EpochStore s;
    s.open(0, 10, os::SyncEventKind::FutexWake, os::kNoThread);
    s.addRow(3, c);
    auto row = s[0].active.begin();
    EXPECT_EQ(row.mask(), (1u << 0) | (1u << 7) | (1u << 14));
    EXPECT_EQ(row.words()[0], 1u);
    EXPECT_EQ(row.words()[1], 8u);
    EXPECT_EQ(row.words()[2], 15u);
}

TEST(EpochStore, RowsRoundTripExactly)
{
    // All-zero, all-nonzero, all-UINT64_MAX and one-field rows, across
    // epochs with zero, one and many rows.
    std::vector<std::vector<EpochThread>> epochs;
    const std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();

    epochs.push_back({});
    epochs.push_back({EpochThread{0, {}}});

    std::vector<EpochThread> dense;
    PerfCounters::Words all{}, top{};
    for (unsigned i = 0; i < PerfCounters::kFields; ++i) {
        all[i] = 0x0101'0101'0101'0101ULL * (i + 1);
        top[i] = kMax;
    }
    dense.push_back({1, PerfCounters::fromWords(all)});
    dense.push_back({2, PerfCounters::fromWords(top)});
    dense.push_back({os::kNoThread - 1, {}});
    epochs.push_back(dense);

    std::vector<EpochThread> single;
    for (unsigned i = 0; i < PerfCounters::kFields; ++i) {
        PerfCounters::Words one{};
        one[i] = i % 2 ? kMax : i + 1;
        single.push_back({i, PerfCounters::fromWords(one)});
    }
    epochs.push_back(single);
    epochs.push_back({});

    EpochStore s;
    std::size_t words = 0, rows = 0;
    for (std::size_t e = 0; e < epochs.size(); ++e) {
        s.open(100 * e, 100 * e + 50 + e, os::SyncEventKind::FutexWait,
               static_cast<os::ThreadId>(e));
        for (const EpochThread &et : epochs[e]) {
            s.addRow(et.tid, et.delta);
            for (std::uint64_t w : et.delta.words())
                words += w != 0;
            ++rows;
        }
    }
    s.shrinkToFit();

    ASSERT_EQ(s.size(), epochs.size());
    EXPECT_EQ(s.rowCount(), rows);
    EXPECT_EQ(s.wordCount(), words);  // zeros are not stored
    EXPECT_EQ(s.rows(0, s.size()).size(), rows);
    for (std::size_t e = 0; e < epochs.size(); ++e) {
        const pred::Epoch ep = s[e];
        EXPECT_EQ(ep.start, 100 * e);
        EXPECT_EQ(ep.end, 100 * e + 50 + e);
        EXPECT_EQ(ep.boundary, os::SyncEventKind::FutexWait);
        EXPECT_EQ(ep.stallTid, e);
        ASSERT_EQ(ep.active.size(), epochs[e].size()) << "epoch " << e;
        std::size_t r = 0;
        for (const EpochThread et : ep.active) {
            EXPECT_EQ(et.tid, epochs[e][r].tid);
            EXPECT_EQ(et.delta.words(), epochs[e][r].delta.words())
                << "epoch " << e << " row " << r;
            ++r;
        }
    }

    // The same rows appended again make an equal store.
    EpochStore again;
    for (std::size_t e = 0; e < epochs.size(); ++e) {
        again.open(100 * e, 100 * e + 50 + e, os::SyncEventKind::FutexWait,
                   static_cast<os::ThreadId>(e));
        for (const EpochThread &et : epochs[e])
            again.addRow(et.tid, et.delta);
    }
    EXPECT_TRUE(again == s);
    again.clear();
    EXPECT_TRUE(again.empty());
    EXPECT_EQ(again.rowCount(), 0u);
}

TEST(AvroraPin, ExactFingerprint)
{
    const exp::FixedRunOutput &out = avroraExact();
    EXPECT_EQ(out.totalTime, 17700275503855u);
    EXPECT_EQ(exp::sweep::fingerprintRun(out), 0x6e523f5aec27bc89ULL);
}

TEST(AvroraPin, SampledFingerprint)
{
    exp::RunOptions opts;
    opts.seed = 15384949180767462168ULL;
    opts.mode = exp::SimMode::Sampled;
    const exp::FixedRunOutput out = exp::runFixed(
        wl::benchmarkByName("avrora"), Frequency::mhz(1000), opts);
    EXPECT_EQ(out.totalTime, 17854972811878u);
    EXPECT_EQ(exp::sweep::fingerprintRun(out), 0xefdfd7465f83ac68ULL);
}

TEST(AvroraPin, TraceRoundTripKeepsTheFingerprint)
{
    const exp::FixedRunOutput &out = avroraExact();
    const auto image = trace::encodeTrace(out.record, {"avrora", 42});
    const trace::LoadedTrace loaded = trace::decodeTrace(image);
    EXPECT_TRUE(loaded.record().epochs == out.record.epochs);

    exp::FixedRunOutput replayed = out;
    replayed.record = loaded.record();
    EXPECT_EQ(exp::sweep::fingerprintRun(replayed),
              exp::sweep::fingerprintRun(out));
}
