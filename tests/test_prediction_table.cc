/**
 * @file
 * The table-based predictors against the reference walks
 * (reference_predictors.hh): every family and estimator, from a live
 * RecordView and from a decoded trace, at every target list the
 * serving path asks for — bit for bit; and DEP over the energy
 * manager's per-quantum tables.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "exp/experiment.hh"
#include "power/vf_table.hh"
#include "pred/registry.hh"
#include "reference_predictors.hh"
#include "sim/rng.hh"
#include "trace/reader.hh"
#include "trace/replay.hh"
#include "trace/writer.hh"
#include "wl/suite.hh"

using namespace dvfs;
using namespace dvfs::pred;

namespace {

/** A family over one spec: what a predictor in a set is. */
using Member = std::pair<std::string, ModelSpec>;

struct PredictorSet {
    std::string label;
    std::vector<std::unique_ptr<Predictor>> predictors;
    std::vector<Member> members;
};

std::vector<PredictorSet>
predictorSets()
{
    std::vector<PredictorSet> sets;

    PredictorSet fig3{"figure3Set",
                      PredictorRegistry::instance().figure3Set(), {}};
    for (const char *family : {"M+CRIT", "COOP", "DEP"}) {
        fig3.members.push_back({family, {BaseEstimator::Crit, false}});
        fig3.members.push_back({family, {BaseEstimator::Crit, true}});
    }
    sets.push_back(std::move(fig3));

    for (const std::string &family : test::reference::kFamilies) {
        PredictorSet ladder{"estimatorLadder(" + family + ")", {}, {}};
        for (const ModelSpec &spec : test::reference::estimatorLadder()) {
            ladder.predictors.push_back(
                test::reference::make(family, spec));
            ladder.members.push_back({family, spec});
        }
        sets.push_back(std::move(ladder));
    }
    return sets;
}

/** The target lists the serving path and the harnesses use. */
std::vector<std::pair<std::string, std::vector<Frequency>>>
targetLists()
{
    std::vector<std::pair<std::string, std::vector<Frequency>>> lists;
    for (std::uint32_t step : {125u, 250u}) {
        lists.push_back({"haswell step " + std::to_string(step),
                         power::VfTable::haswell(step).frequencies()});
    }
    std::vector<Frequency> predict;
    for (std::uint32_t k = 0; k < 13; ++k)
        predict.push_back(Frequency::mhz(1000 + 250 * k));
    lists.push_back({"predict targets", predict});
    // A what-if wider than one chunk, unordered, off the table's grid.
    std::vector<Frequency> whatif;
    for (std::uint32_t k = 0; k < 2 * Predictor::kTargetChunk + 3; ++k)
        whatif.push_back(Frequency::mhz(4000 - 157 * k));
    lists.push_back({"multi-chunk what-if", whatif});
    return lists;
}

/** Small runs with locks, several threads, and (the first) GCs. */
std::vector<RunRecord>
records()
{
    std::vector<RunRecord> recs;
    auto gc_heavy = wl::syntheticSmall(4, 300);
    gc_heavy.lockProb = 0.4;
    gc_heavy.allocBytesPerItem = 32 << 10;
    recs.push_back(exp::runFixed(gc_heavy, Frequency::ghz(1.0)).record);
    recs.push_back(
        exp::runFixed(wl::syntheticSmall(2, 200), Frequency::ghz(2.0))
            .record);
    return recs;
}

} // namespace

TEST(PredictionTable, FarThreadIdsAreRenumberedExactly)
{
    // ThreadIds far past the row count (a crafted trace) get dense
    // slots. DEP does not depend on what the threads are called, so the
    // record must predict exactly what the reference walk predicts for
    // the same record with small ids (the reference would size its
    // delta array by the largest id). A stall thread that never runs
    // (77) resets nothing anyone reads.
    auto record = [](os::ThreadId a, os::ThreadId b) {
        RunRecord rec;
        rec.baseFreq = Frequency::ghz(1.0);
        auto row = [](os::ThreadId tid, Tick busy, Tick crit) {
            EpochThread et;
            et.tid = tid;
            et.delta.busyTime = busy;
            et.delta.critNonscaling = crit;
            return et;
        };
        Tick t = 0;
        for (Tick i = 0; i < 12; ++i) {
            const Tick start = t;
            t += 100 + 7 * i;
            rec.epochs.open(start, t, os::SyncEventKind::FutexWake,
                            i % 3 == 0   ? a
                            : i % 3 == 1 ? 77
                                         : os::kNoThread);
            for (const EpochThread &et :
                 {row(a, 90 - i, 10 * (i % 3)), row(5, 60 + 3 * i, 5)})
                rec.epochs.addRow(et.tid, et.delta);
            if (i % 4 == 1)
                rec.epochs.addRow(b, row(b, 100, 40).delta);
        }
        rec.totalTime = t;
        return rec;
    };
    const RunRecord far = record(3'000'000'000u, 3'000'000'007u);
    const RunRecord near = record(0, 1);

    const PredictionTable table{RecordView(far)};
    EXPECT_EQ(table.threadSlots(), 3u);
    for (bool across : {true, false}) {
        const DepPredictor dep({BaseEstimator::Crit, false}, across);
        for (std::uint32_t mhz : {500u, 1000u, 1700u, 4000u}) {
            EXPECT_EQ(dep.predict(table, Frequency::mhz(mhz)),
                      test::reference::dep(RecordView(near),
                                           {BaseEstimator::Crit, false},
                                           across, Frequency::mhz(mhz)))
                << (across ? "across" : "per-epoch") << " at " << mhz;
        }
    }
}

TEST(PredictionTable, MatchesReferenceWalks)
{
    const auto recs = records();
    ASSERT_FALSE(recs[0].gcMarks.empty()) << "COOP needs GC phases";
    const auto sets = predictorSets();
    const auto lists = targetLists();

    for (std::size_t ri = 0; ri < recs.size(); ++ri) {
        const RecordView live(recs[ri]);
        const trace::LoadedTrace loaded = trace::decodeTrace(
            trace::encodeTrace(recs[ri], {"reference", ri}));
        for (const RunView *view : {static_cast<const RunView *>(&live),
                                    static_cast<const RunView *>(&loaded)}) {
            const std::string input = std::string(
                view == &live ? "RecordView" : "LoadedTrace") +
                " of record " + std::to_string(ri);
            const PredictionTable table(*view);

            for (const PredictorSet &set : sets) {
                ASSERT_EQ(set.predictors.size(), set.members.size());
                // The engine's fused grid over the same set.
                std::vector<std::unique_ptr<Predictor>> copies;
                for (const Member &m : set.members)
                    copies.push_back(
                        test::reference::make(m.first, m.second));
                const trace::ReplayEngine engine(std::move(copies));

                for (const auto &[list_name, targets] : lists) {
                    std::vector<trace::ReplayTarget> replay;
                    for (Frequency f : targets)
                        replay.push_back({f, 0});
                    const auto cells = engine.evaluate(*view, replay);
                    ASSERT_EQ(cells.size(),
                              targets.size() * set.predictors.size());

                    for (std::size_t p = 0; p < set.predictors.size();
                         ++p) {
                        const Predictor &pr = *set.predictors[p];
                        const auto &[family, spec] = set.members[p];
                        SCOPED_TRACE(input + ", " + set.label + ", " +
                                     pr.name() + ", " + list_name);
                        ASSERT_EQ(pr.name(), engine.predictorNames()[p]);

                        std::vector<Tick> fused(targets.size());
                        pr.predict(table, targets, fused);
                        for (std::size_t t = 0; t < targets.size(); ++t) {
                            const Tick want = test::reference::predict(
                                family, spec, *view, targets[t]);
                            EXPECT_EQ(fused[t], want)
                                << targets[t].toMHz() << " MHz";
                            EXPECT_EQ(
                                cells[t * set.predictors.size() + p]
                                    .predicted,
                                want)
                                << targets[t].toMHz() << " MHz";
                            EXPECT_EQ(pr.predict(*view, targets[t]), want)
                                << targets[t].toMHz() << " MHz";
                        }
                    }
                }
            }
        }

        // The energy manager's path: DEP over a table of a live epoch
        // sub-range (the span constructor) at every Haswell point,
        // recorded at f_cur = 4 GHz. The last range ends at the
        // record's end.
        const EpochStore &epochs = recs[ri].epochs;
        ASSERT_GE(epochs.size(), 7u);
        std::vector<std::pair<std::size_t, std::size_t>> ranges;
        for (std::size_t first = 0; first < epochs.size(); first += 37) {
            for (std::size_t len : {1u, 5u, 64u})
                ranges.push_back(
                    {first, std::min(first + len, epochs.size())});
        }
        ranges.push_back({epochs.size() - 7, epochs.size()});
        const std::vector<Frequency> &points = lists.front().second;
        std::vector<Tick> fused(points.size());
        for (bool across : {true, false}) {
            const DepPredictor dep({BaseEstimator::Crit, true}, across);
            for (const auto &[first, last] : ranges) {
                const PredictionTable range(epochs, first, last,
                                            Frequency::mhz(4000));
                dep.predict(range, points, fused);
                for (std::size_t k = 0; k < points.size(); ++k) {
                    const double ratio =
                        4000.0 / static_cast<double>(points[k].toMHz());
                    EXPECT_EQ(fused[k],
                              test::reference::depEpochRange(
                                  recs[ri].epochs, first, last, ratio,
                                  {BaseEstimator::Crit, true}, across))
                        << "epochs [" << first << ", " << last << ") at "
                        << points[k].toMHz() << " MHz";
                }
            }
        }
    }
}

TEST(PredictionTable, EpochlessQuantumIsItsSlowestBusyThread)
{
    // The energy manager predicts a quantum that closed no epoch as
    // one zero-length epoch whose rows are the busy threads' quantum
    // deltas. With one epoch and no banked slack both CTP modes reduce
    // to the slowest row: the per-thread predictSpan maximum, and 0
    // (zero length, nothing idle to add) when no thread ran.
    sim::Rng rng(0x5eed);
    const std::vector<Frequency> points =
        power::VfTable::haswell().frequencies();
    ASSERT_EQ(points.size(), 25u);
    const ModelSpec specs[] = {{BaseEstimator::Crit, true},
                               {BaseEstimator::Crit, false},
                               {BaseEstimator::LeadingLoads, true},
                               {BaseEstimator::StallTime, false}};

    std::size_t no_busy = 0;
    std::vector<Tick> fused(points.size());
    for (int q = 0; q < 300; ++q) {
        // Every tenth quantum nobody ran; some use ThreadIds far
        // enough apart to be renumbered.
        const bool idle = q % 10 == 0;
        const os::ThreadId stride = q % 3 == 0 ? 40 : 1;
        std::vector<uarch::PerfCounters> deltas(rng.nextBounded(9));
        EpochStore quantum;
        quantum.open(0, 0, os::SyncEventKind::RunEnd, os::kNoThread);
        for (std::size_t i = 0; i < deltas.size(); ++i) {
            uarch::PerfCounters &d = deltas[i];
            d.busyTime = idle || rng.nextBool(0.25)
                             ? 0
                             : rng.nextRange(1, 5'000'000);
            // Non-scaling counters may exceed the span (clamped).
            d.critNonscaling = rng.nextRange(0, d.busyTime + 1000);
            d.leadingNonscaling = rng.nextRange(0, d.busyTime);
            d.stallNonscaling = rng.nextRange(0, d.busyTime / 2);
            d.sqFullTime = rng.nextRange(0, 20'000);
            if (d.busyTime > 0)
                quantum.addRow(static_cast<os::ThreadId>(i) * stride, d);
        }
        no_busy += quantum[0].active.empty();
        const Frequency f_cur = points[rng.nextBounded(points.size())];
        const PredictionTable table(quantum, 0, 1, f_cur);

        for (const ModelSpec &spec : specs) {
            for (bool across : {true, false}) {
                const DepPredictor dep(spec, across);
                dep.predict(table, points, fused);
                for (std::size_t k = 0; k < points.size(); ++k) {
                    const double ratio =
                        static_cast<double>(f_cur.toMHz()) /
                        static_cast<double>(points[k].toMHz());
                    Tick want = 0;
                    for (const uarch::PerfCounters &d : deltas) {
                        if (d.busyTime > 0)
                            want = std::max(want, predictSpan(d.busyTime,
                                                              d, spec,
                                                              ratio));
                    }
                    EXPECT_EQ(fused[k], want)
                        << "quantum " << q << ", " << dep.name() << " at "
                        << points[k].toMHz() << " MHz";
                }
            }
        }
    }
    EXPECT_GE(no_busy, 30u);
}
