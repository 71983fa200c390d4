/**
 * @file
 * PredictorRegistry: the Figure 3 set.
 *
 * Its names appear in tables and on the wire, so their spelling and
 * order are contract: figure3Set must match the paper's column order
 * and hold the families it names, and the DEP estimator ladder must
 * match the ablation's column order.
 */

#include <gtest/gtest.h>

#include "pred/registry.hh"

using namespace dvfs;
using pred::BaseEstimator;
using pred::ModelSpec;
using pred::PredictorRegistry;

TEST(PredictorRegistry, Figure3SetMatchesPaperOrder)
{
    auto zoo = PredictorRegistry::instance().figure3Set();
    std::vector<std::string> names;
    for (const auto &p : zoo)
        names.push_back(p->name());
    EXPECT_EQ(names, (std::vector<std::string>{
                         "M+CRIT", "M+CRIT+BURST", "COOP(CRIT)",
                         "COOP(CRIT+BURST)", "DEP", "DEP+BURST"}));

    // A second materialisation returns the same zoo (fresh instances).
    auto again = pred::PredictorRegistry::instance().figure3Set();
    ASSERT_EQ(again.size(), zoo.size());
    for (std::size_t i = 0; i < zoo.size(); ++i) {
        EXPECT_EQ(again[i]->name(), zoo[i]->name());
        EXPECT_NE(again[i].get(), zoo[i].get());
    }
}

TEST(PredictorRegistry, MakeConstructsTheRequestedVariant)
{
    // Each Figure 3 entry is the family and spec its name says.
    auto zoo = PredictorRegistry::instance().figure3Set();
    ASSERT_EQ(zoo.size(), 6u);
    EXPECT_NE(dynamic_cast<pred::MCritPredictor *>(zoo[0].get()), nullptr);
    EXPECT_NE(dynamic_cast<pred::MCritPredictor *>(zoo[1].get()), nullptr);
    EXPECT_NE(dynamic_cast<pred::CoopPredictor *>(zoo[2].get()), nullptr);
    EXPECT_NE(dynamic_cast<pred::CoopPredictor *>(zoo[3].get()), nullptr);
    EXPECT_NE(dynamic_cast<pred::DepPredictor *>(zoo[4].get()), nullptr);
    EXPECT_NE(dynamic_cast<pred::DepPredictor *>(zoo[5].get()), nullptr);

    // The variants outside the set are one constructor call each.
    EXPECT_EQ(pred::CoopPredictor({BaseEstimator::Crit, true}).name(),
              "COOP(CRIT+BURST)");
    EXPECT_EQ(pred::DepPredictor({BaseEstimator::Crit, true}, false).name(),
              "DEP+BURST(per-epoch CTP)");
}

TEST(PredictorRegistry, EstimatorLadderMatchesAblationOrder)
{
    // STALL, STALL+BURST, LL, LL+BURST, CRIT, CRIT+BURST, ORACLE,
    // ORACLE+BURST — the ablation's column order, as DEP variants.
    const std::vector<ModelSpec> specs = {
        {BaseEstimator::StallTime, false},
        {BaseEstimator::StallTime, true},
        {BaseEstimator::LeadingLoads, false},
        {BaseEstimator::LeadingLoads, true},
        {BaseEstimator::Crit, false},
        {BaseEstimator::Crit, true},
        {BaseEstimator::Oracle, false},
        {BaseEstimator::Oracle, true},
    };
    std::vector<std::string> names;
    for (const auto &s : specs)
        names.push_back(pred::DepPredictor(s).name());
    EXPECT_EQ(names, (std::vector<std::string>{
                         "DEP[STALL]", "DEP+BURST[STALL]", "DEP[LL]",
                         "DEP+BURST[LL]", "DEP", "DEP+BURST", "DEP[ORACLE]",
                         "DEP+BURST[ORACLE]"}));
}
