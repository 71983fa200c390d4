/**
 * @file
 * Shared-cursor sweep pool: worker-count edge cases, index-keyed
 * aggregation, failure propagation and cancellation.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exp/sweep/pool.hh"

using namespace dvfs::exp::sweep;

TEST(SweepPool, ZeroWorkersIsFatal)
{
    EXPECT_EXIT(runIndexed(4, 0, [](std::size_t) {}),
                ::testing::ExitedWithCode(1), "worker count");
}

TEST(SweepPool, SingleWorkerRunsInIndexOrder)
{
    std::vector<std::size_t> order;
    runIndexed(16, 1, [&](std::size_t i) { order.push_back(i); });
    ASSERT_EQ(order.size(), 16u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(SweepPool, EveryIndexRunsExactlyOnce)
{
    for (unsigned workers : {1u, 2u, 3u, 8u}) {
        std::vector<std::atomic<int>> hits(100);
        runIndexed(hits.size(), workers,
                   [&](std::size_t i) { ++hits[i]; });
        for (std::size_t i = 0; i < hits.size(); ++i)
            EXPECT_EQ(hits[i].load(), 1) << "index " << i << " workers "
                                         << workers;
    }
}

TEST(SweepPool, MoreWorkersThanCells)
{
    std::atomic<std::size_t> ran{0};
    runIndexed(3, 16, [&](std::size_t) { ++ran; });
    EXPECT_EQ(ran.load(), 3u);
}

TEST(SweepPool, ZeroCellsIsANoOp)
{
    bool ran = false;
    runIndexed(0, 4, [&](std::size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(SweepPool, ResultsKeyedByIndexNotSchedule)
{
    const std::size_t n = 64;
    auto out = sweepMap<std::size_t>(
        n, 8, [](std::size_t i) { return i * i; });
    ASSERT_EQ(out.size(), n);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(out[i], i * i);
}

TEST(SweepPool, FailureReportsCellIndex)
{
    for (unsigned workers : {1u, 4u}) {
        try {
            runIndexed(10, workers, [](std::size_t i) {
                if (i == 7)
                    throw std::runtime_error("cell seven exploded");
            });
            FAIL() << "expected SweepError (workers=" << workers << ")";
        } catch (const SweepError &e) {
            EXPECT_EQ(e.cell(), 7u);
            EXPECT_NE(std::string(e.what()).find("cell seven exploded"),
                      std::string::npos);
        }
    }
}

TEST(SweepPool, FailureCancelsRemainingCells)
{
    // Cell 0 fails immediately; every other cell sleeps long enough
    // that cancellation must beat it to the punch. With 2 workers and
    // 64 cells, a full run would take >300 ms of sleeping; require
    // that most of the grid was skipped.
    std::atomic<std::size_t> executed{0};
    try {
        runIndexed(64, 2, [&](std::size_t i) {
            if (i == 0)
                throw std::runtime_error("fail fast");
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
            ++executed;
        });
        FAIL() << "expected SweepError";
    } catch (const SweepError &e) {
        EXPECT_EQ(e.cell(), 0u);
    }
    EXPECT_LT(executed.load(), 64u);
}

TEST(SweepPool, FirstFailureWinsWhenSerial)
{
    // Serial mode visits cells in index order, so the reported cell
    // is always the lowest failing index.
    try {
        runIndexed(10, 1, [](std::size_t i) {
            if (i >= 3)
                throw std::runtime_error("boom");
        });
        FAIL() << "expected SweepError";
    } catch (const SweepError &e) {
        EXPECT_EQ(e.cell(), 3u);
    }
}

TEST(SweepPool, PoolIsReusableAfterFailure)
{
    // A failed run must leave no residue: the next call works.
    EXPECT_THROW(
        runIndexed(4, 2,
                   [](std::size_t) { throw std::runtime_error("x"); }),
        SweepError);
    std::atomic<std::size_t> ran{0};
    runIndexed(4, 2, [&](std::size_t) { ++ran; });
    EXPECT_EQ(ran.load(), 4u);
}

TEST(SweepPool, DefaultWorkersIsPositive)
{
    EXPECT_GE(defaultWorkers(), 1u);
}
