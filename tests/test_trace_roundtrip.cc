/**
 * @file
 * Trace round-trip: a .dvfstrace must reproduce the recorded run
 * exactly — every observed field, and therefore every prediction.
 *
 * The bit-identity contract of the replay path rests on two facts
 * checked here: (1) encode/decode round-trips every RunRecord field
 * the observation API exposes, and (2) predictors are pure functions of the RunView,
 * so a LoadedTrace and a live RecordView over the same run yield
 * bit-identical predictions. A pinned golden payload digest makes the
 * serialization itself part of the repo's determinism witness.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "exp/experiment.hh"
#include "pred/registry.hh"
#include "pred/run_view.hh"
#include "reference_predictors.hh"
#include "trace/reader.hh"
#include "trace/writer.hh"
#include "wl/suite.hh"

using namespace dvfs;

namespace {

/** One mid-size managed-runtime record. */
const exp::FixedRunOutput &
sampleRun()
{
    static exp::FixedRunOutput out = [] {
        auto params = wl::syntheticSmall(4, 120);
        params.lockProb = 0.3;
        return exp::runFixed(params, Frequency::ghz(1.0));
    }();
    return out;
}

void
expectCountersEq(const uarch::PerfCounters &a, const uarch::PerfCounters &b)
{
    EXPECT_EQ(a.words(), b.words());
}

void
expectRecordsEq(const pred::RunRecord &a, const pred::RunRecord &b)
{
    EXPECT_EQ(a.baseFreq, b.baseFreq);
    EXPECT_EQ(a.totalTime, b.totalTime);

    ASSERT_EQ(a.epochs.size(), b.epochs.size());
    for (std::size_t i = 0; i < a.epochs.size(); ++i) {
        const pred::Epoch ea = a.epochs[i];
        const pred::Epoch eb = b.epochs[i];
        EXPECT_EQ(ea.start, eb.start) << "epoch " << i;
        EXPECT_EQ(ea.end, eb.end) << "epoch " << i;
        EXPECT_EQ(ea.boundary, eb.boundary) << "epoch " << i;
        EXPECT_EQ(ea.stallTid, eb.stallTid) << "epoch " << i;
        ASSERT_EQ(ea.active.size(), eb.active.size()) << "epoch " << i;
        for (auto ta = ea.active.begin(), tb = eb.active.begin();
             ta != ea.active.end(); ++ta, ++tb) {
            EXPECT_EQ((*ta).tid, (*tb).tid);
            expectCountersEq((*ta).delta, (*tb).delta);
        }
    }
    EXPECT_TRUE(a.epochs == b.epochs);

    ASSERT_EQ(a.threads.size(), b.threads.size());
    for (std::size_t i = 0; i < a.threads.size(); ++i) {
        EXPECT_EQ(a.threads[i].tid, b.threads[i].tid);
        EXPECT_EQ(a.threads[i].service, b.threads[i].service);
        EXPECT_EQ(a.threads[i].spawnTick, b.threads[i].spawnTick);
        EXPECT_EQ(a.threads[i].exitTick, b.threads[i].exitTick);
        expectCountersEq(a.threads[i].totals, b.threads[i].totals);
    }

    ASSERT_EQ(a.gcMarks.size(), b.gcMarks.size());
    for (std::size_t i = 0; i < a.gcMarks.size(); ++i) {
        EXPECT_EQ(a.gcMarks[i].tick, b.gcMarks[i].tick);
        EXPECT_EQ(a.gcMarks[i].begin, b.gcMarks[i].begin);
    }
}

} // namespace

TEST(TraceRoundtrip, EveryObservedFieldSurvives)
{
    const auto &out = sampleRun();

    auto image = trace::encodeTrace(out.record, {"roundtrip", 7});
    auto loaded = trace::decodeTrace(image);

    EXPECT_EQ(loaded.meta().workload, "roundtrip");
    EXPECT_EQ(loaded.meta().seed, 7u);
    EXPECT_EQ(loaded.payloadDigest(), trace::tracePayloadDigest(image));
    expectRecordsEq(out.record, loaded.record());
}

TEST(TraceRoundtrip, PredictionsBitIdenticalToLiveView)
{
    const auto &out = sampleRun();
    auto loaded =
        trace::decodeTrace(trace::encodeTrace(out.record, {"bits", 42}));

    pred::RecordView live(out.record);
    for (const auto &p :
         pred::PredictorRegistry::instance().figure3Set()) {
        for (double ghz : {2.0, 3.0, 4.0}) {
            Frequency t = Frequency::ghz(ghz);
            // Predictions are integer ticks: equality IS bit-identity.
            EXPECT_EQ(p->predict(live, t), p->predict(loaded, t))
                << p->name() << " @ " << t.toString();
        }
    }
    for (const pred::ModelSpec &spec :
         test::reference::estimatorLadder()) {
        const pred::DepPredictor p(spec);
        Frequency t = Frequency::ghz(4.0);
        EXPECT_EQ(p.predict(live, t), p.predict(loaded, t)) << p.name();
    }
}

TEST(TraceRoundtrip, FileRoundTrip)
{
    const auto &out = sampleRun();
    const std::string path =
        testing::TempDir() + "/" + trace::traceFileName("file_rt", 1000, 9);

    trace::writeTraceFile(path, out.record, {"file_rt", 9});
    auto loaded = trace::readTraceFile(path);
    EXPECT_EQ(loaded.meta().workload, "file_rt");
    expectRecordsEq(out.record, loaded.record());
    std::remove(path.c_str());
}

TEST(TraceRoundtrip, EncodingIsDeterministic)
{
    const auto &out = sampleRun();
    auto a = trace::encodeTrace(out.record, {"det", 42});
    auto b = trace::encodeTrace(out.record, {"det", 42});
    EXPECT_EQ(a, b);
    EXPECT_EQ(trace::tracePayloadDigest(a), trace::tracePayloadDigest(b));
}

TEST(TraceRoundtrip, GoldenPayloadDigest)
{
    // The serialization format's determinism witness: the default
    // DaCapo workload at 1 GHz, seed 42, must always encode to these
    // exact bytes. If a change *intends* to alter the format or the
    // simulated behaviour, bump kTraceVersion when the layout changed,
    // re-derive this constant (the failure message prints the actual
    // digest) and update it in the same commit.
    const std::uint64_t kGoldenPayloadDigest = 0xe0c48a58dbb36557ull;

    auto params = wl::dacapoSuite().front();
    exp::RunOptions opts;
    opts.seed = 42;
    auto out = exp::runFixed(params, Frequency::ghz(1.0), opts);

    auto image = trace::encodeTrace(out.record, {params.name, opts.seed});
    EXPECT_EQ(trace::tracePayloadDigest(image), kGoldenPayloadDigest)
        << "actual digest: 0x" << std::hex
        << trace::tracePayloadDigest(image);
}
