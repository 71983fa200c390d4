/**
 * @file
 * Tests for the CSV export of run artifacts.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "exp/experiment.hh"
#include "exp/export.hh"
#include "test_util.hh"
#include "wl/builder.hh"

using namespace dvfs;

namespace {

std::size_t
countLines(const std::string &s)
{
    std::size_t n = 0;
    for (char c : s) {
        if (c == '\n')
            ++n;
    }
    return n;
}

const exp::FixedRunOutput &
sampleRun()
{
    static const exp::FixedRunOutput out =
        exp::runFixed(wl::syntheticSmall(2, 40), Frequency::ghz(1.0));
    return out;
}

} // namespace

TEST(Export, EpochsCsvHasRowPerActiveThread)
{
    const auto &out = sampleRun();
    std::ostringstream os;
    exp::writeEpochsCsv(os, out.record);
    std::string s = os.str();

    std::size_t expected = 0;
    for (const auto &ep : out.record.epochs)
        expected += std::max<std::size_t>(ep.active.size(), 1);
    EXPECT_EQ(countLines(s), expected + 1);  // + header
    EXPECT_EQ(s.substr(0, 5), "epoch");
    EXPECT_NE(s.find("FutexWait"), std::string::npos);
}

TEST(Export, EventsCsvMatchesTrace)
{
    wl::BenchInstance inst = wl::buildBenchmark(
        wl::syntheticSmall(2, 40),
        wl::defaultSystemConfig(Frequency::ghz(1.0)));
    test::TraceCollector trace;
    inst.sys->addListener(&trace);
    inst.sys->run();

    std::ostringstream os;
    exp::writeEventsCsv(os, trace.events);
    EXPECT_EQ(countLines(os.str()), trace.events.size() + 1);
    EXPECT_NE(os.str().find("RunEnd"), std::string::npos);
}

TEST(Export, ThreadsCsvHasRowPerThread)
{
    const auto &out = sampleRun();
    std::ostringstream os;
    exp::writeThreadsCsv(os, out.record);
    EXPECT_EQ(countLines(os.str()), out.record.threads.size() + 1);
    // Service threads flagged.
    EXPECT_NE(os.str().find(",1,"), std::string::npos);
}

TEST(Export, DecisionsCsv)
{
    mgr::ManagerConfig mc;
    mc.quantum = 20 * kTicksPerUs;
    mc.tolerableSlowdown = 0.1;
    auto managed = exp::runManaged(wl::syntheticSmall(2, 120), mc,
                                   power::VfTable::haswell());
    std::ostringstream os;
    exp::writeDecisionsCsv(os, managed.decisions);
    EXPECT_EQ(countLines(os.str()), managed.decisions.size() + 1);
    EXPECT_NE(os.str().find("epochs"), std::string::npos);
}

TEST(Export, CsvFieldCountsAreConsistent)
{
    const auto &out = sampleRun();
    std::ostringstream os;
    exp::writeThreadsCsv(os, out.record);
    std::istringstream in(os.str());
    std::string line;
    std::getline(in, line);
    const auto headers =
        static_cast<std::size_t>(
            std::count(line.begin(), line.end(), ',')) + 1;
    while (std::getline(in, line)) {
        EXPECT_EQ(static_cast<std::size_t>(
                      std::count(line.begin(), line.end(), ',')) + 1,
                  headers);
    }
}
