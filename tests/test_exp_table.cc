/**
 * @file
 * Tests for the experiment harness utilities (Table printer, metrics,
 * runFixed output coherence).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "exp/experiment.hh"
#include "exp/table.hh"

using namespace dvfs;
using dvfs::exp::Table;

TEST(Table, PrintsAlignedColumns)
{
    Table t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22222"});
    std::ostringstream os;
    t.print(os);
    std::string s = os.str();
    EXPECT_NE(s.find("| alpha |"), std::string::npos);
    EXPECT_NE(s.find("| 22222 |"), std::string::npos);
    // Header separator present.
    EXPECT_NE(s.find("+====="), std::string::npos);
}

TEST(Table, SeparatorRowsRender)
{
    Table t({"a"});
    t.addRow({"x"});
    t.addSeparator();
    t.addRow({"y"});
    std::ostringstream os;
    t.print(os);
    // Three horizontal lines (top, header, separator) plus bottom.
    std::string s = os.str();
    std::size_t lines = 0, pos = 0;
    while ((pos = s.find("+--", pos)) != std::string::npos) {
        ++lines;
        pos += 3;
    }
    EXPECT_GE(lines, 3u);
}

TEST(Table, Formatters)
{
    EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
    EXPECT_EQ(Table::fmt(2.0, 0), "2");
    EXPECT_EQ(Table::pct(0.1234), "12.3%");
    EXPECT_EQ(Table::pct(-0.05, 0), "-5%");
}

TEST(TableDeathTest, MismatchedRowIsFatal)
{
    Table t({"a", "b"});
    EXPECT_EXIT(t.addRow({"only-one"}), ::testing::ExitedWithCode(1),
                "cells");
}

TEST(Metrics, MeanAbs)
{
    EXPECT_DOUBLE_EQ(exp::meanAbs({}), 0.0);
    EXPECT_DOUBLE_EQ(exp::meanAbs({-0.1, 0.3}), 0.2);
}

TEST(RunFixed, OutputIsCoherent)
{
    auto out = exp::runFixed(wl::syntheticSmall(2, 40),
                             Frequency::ghz(2.0));
    EXPECT_EQ(out.freq, Frequency::ghz(2.0));
    EXPECT_EQ(out.record.totalTime, out.totalTime);
    EXPECT_EQ(out.record.baseFreq, Frequency::ghz(2.0));
    EXPECT_GT(out.events, 0u);
    // Busy time across threads cannot exceed cores x wall time.
    EXPECT_LE(out.totals.busyTime, 4 * out.totalTime);
    // Epochs tile the run exactly.
    EXPECT_EQ(out.record.epochs[out.record.epochs.size() - 1].end,
              out.totalTime);
}
