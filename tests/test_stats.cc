/**
 * @file
 * Unit tests for the statistics primitives.
 */

#include <gtest/gtest.h>

#include "sim/stats.hh"

using namespace dvfs::sim;

TEST(Counter, IncrementAndReset)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}
