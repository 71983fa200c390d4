/**
 * @file
 * Unit tests for the managed heap.
 */

#include <gtest/gtest.h>

#include "rt/heap.hh"

using namespace dvfs;
using dvfs::rt::Heap;

namespace {

/** A 1 KB nursery; the mature space and windows are the constants. */
constexpr std::uint64_t kTinyNursery = 1024;

} // namespace

TEST(Heap, BumpAllocationIsContiguous)
{
    Heap h(kTinyNursery);
    auto a = h.allocate(128);
    auto b = h.allocate(64);
    ASSERT_TRUE(a && b);
    EXPECT_EQ(*b, *a + 128);
    EXPECT_EQ(h.nurseryUsed(), 192u);
}

TEST(Heap, AllocationRoundsUpToLines)
{
    Heap h(kTinyNursery);
    auto a = h.allocate(1);
    auto b = h.allocate(1);
    ASSERT_TRUE(a && b);
    EXPECT_EQ(*b - *a, 64u);
    EXPECT_EQ(h.totalAllocated(), 128u);
}

TEST(Heap, FullNurseryReturnsNullopt)
{
    Heap h(kTinyNursery);
    ASSERT_TRUE(h.allocate(1024));
    EXPECT_FALSE(h.allocate(64).has_value());
}

TEST(Heap, ResetRotatesWindow)
{
    Heap h(kTinyNursery);
    auto a = h.allocate(64);
    h.resetNursery();
    auto b = h.allocate(64);
    ASSERT_TRUE(a && b);
    EXPECT_EQ(*b - *a, kTinyNursery);  // next window
    EXPECT_EQ(h.nurseryUsed(), 64u);

    // Windows wrap around.
    for (std::uint32_t i = 1; i < Heap::kNurseryWindows; ++i)
        h.resetNursery();
    auto c = h.allocate(64);
    EXPECT_EQ(*c, *a);
}

TEST(Heap, MatureAllocationWraps)
{
    Heap h(kTinyNursery);
    // Bump allocation: filling the 64 MB space is only arithmetic.
    constexpr std::uint64_t half = Heap::kMatureBytes / 2;
    std::uint64_t first = h.matureAlloc(half);
    h.matureAlloc(half);
    std::uint64_t wrapped = h.matureAlloc(half);
    EXPECT_EQ(wrapped, first);
    EXPECT_EQ(h.totalCopied(), 3 * half);
}

TEST(Heap, SpacesAreDisjoint)
{
    Heap h(kTinyNursery);
    auto n = h.allocate(64);
    auto m = h.matureAlloc(64);
    ASSERT_TRUE(n);
    // Nursery windows all live below the mature base.
    EXPECT_LT(*n + kTinyNursery * Heap::kNurseryWindows, m + 1);
}

TEST(HeapDeathTest, OversizedAllocationIsFatal)
{
    Heap h(kTinyNursery);
    EXPECT_EXIT(h.allocate(4096), ::testing::ExitedWithCode(1),
                "exceeds the nursery");
}

TEST(HeapDeathTest, NurseryOverlappingTheMatureSpaceIsFatal)
{
    // The largest nursery whose eight windows fit below the mature
    // space is 512 MB; its last window ends exactly at the mature base.
    constexpr std::uint64_t kLargest =
        (Heap::kMatureBase - Heap::kNurseryBase) / Heap::kNurseryWindows;
    Heap largest(kLargest);
    for (std::uint32_t w = 1; w < Heap::kNurseryWindows; ++w)
        largest.resetNursery();
    EXPECT_EQ(largest.nurseryBase() + kLargest, Heap::kMatureBase);

    // One line more and windows 4-7 would overlap the mature space.
    EXPECT_EXIT(Heap(kLargest + 64), ::testing::ExitedWithCode(1),
                "overlaps the mature space");
    EXPECT_EXIT(Heap(1ULL << 30), ::testing::ExitedWithCode(1),
                "overlaps the mature space");
}
