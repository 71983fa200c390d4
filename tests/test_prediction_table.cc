/**
 * @file
 * The table-based predictors against the reference walks
 * (reference_predictors.hh): every family and estimator, from a live
 * RecordView and from a decoded trace, at every target list the
 * serving path asks for — bit for bit.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "exp/experiment.hh"
#include "power/vf_table.hh"
#include "pred/registry.hh"
#include "reference_predictors.hh"
#include "trace/reader.hh"
#include "trace/replay.hh"
#include "trace/writer.hh"
#include "wl/suite.hh"

using namespace dvfs;
using namespace dvfs::pred;

namespace {

/** A registry family over one spec: what a predictor in a set is. */
using Member = std::pair<std::string, ModelSpec>;

struct PredictorSet {
    std::string label;
    std::vector<std::unique_ptr<Predictor>> predictors;
    std::vector<Member> members;
};

std::vector<PredictorSet>
predictorSets()
{
    const auto &reg = PredictorRegistry::instance();
    std::vector<PredictorSet> sets;

    PredictorSet fig3{"figure3Set", reg.figure3Set(), {}};
    for (const char *family : {"M+CRIT", "COOP", "DEP"}) {
        fig3.members.push_back({family, {BaseEstimator::Crit, false}});
        fig3.members.push_back({family, {BaseEstimator::Crit, true}});
    }
    sets.push_back(std::move(fig3));

    for (const std::string &family : reg.families()) {
        PredictorSet ladder{"estimatorLadder(" + family + ")",
                            reg.estimatorLadder(family), {}};
        for (BaseEstimator base :
             {BaseEstimator::StallTime, BaseEstimator::LeadingLoads,
              BaseEstimator::Crit, BaseEstimator::Oracle}) {
            ladder.members.push_back({family, {base, false}});
            ladder.members.push_back({family, {base, true}});
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
        const auto table = power::VfTable::haswell(step);
        std::vector<Frequency> points;
        for (const auto &p : table.points())
            points.push_back(p.freq);
        lists.push_back({"haswell step " + std::to_string(step), points});
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
            Epoch ep;
            ep.start = t;
            ep.end = t += 100 + 7 * i;
            ep.active = {row(a, 90 - i, 10 * (i % 3)),
                         row(5, 60 + 3 * i, 5)};
            if (i % 4 == 1)
                ep.active.push_back(row(b, 100, 40));
            ep.stallTid = i % 3 == 0 ? a : i % 3 == 1 ? 77 : os::kNoThread;
            rec.epochs.push_back(std::move(ep));
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
                    copies.push_back(PredictorRegistry::instance().make(
                        m.first, m.second));
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

        // The energy manager's path: DEP over live epoch sub-ranges.
        const auto &epochs = recs[ri].epochs;
        for (bool across : {true, false}) {
            const DepPredictor dep({BaseEstimator::Crit, true}, across);
            for (std::size_t first = 0; first < epochs.size();
                 first += 37) {
                for (std::size_t len : {1u, 5u, 64u}) {
                    const double ratio = 4000.0 / (1000.0 + 125.0 * len);
                    EXPECT_EQ(dep.predictEpochRange(epochs, first,
                                                    first + len, ratio),
                              test::reference::depEpochRange(
                                  epochs, first, first + len, ratio,
                                  {BaseEstimator::Crit, true}, across))
                        << "epochs [" << first << ", " << first + len
                        << ")";
                }
            }
        }
    }
}
