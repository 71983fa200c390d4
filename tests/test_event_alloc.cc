/**
 * @file
 * Heap-allocation accounting for the event kernel's steady state.
 *
 * Replaces the global operator new/delete with counting versions and
 * proves the property of the allocation-free event kernel: once the
 * heap has reached its pending high-water mark, scheduling and running
 * events — with captures up to the inline-callback capacity — performs
 * zero heap allocations. The same audit covers the action producers: pulling
 * full miss clusters from a workload worker or a GC worker writes
 * their addresses into the program's own buffer and allocates nothing.
 *
 * This file defines global operators, so it must live in its own test
 * binary (see CMakeLists.txt): linked into the main suite it would
 * count every other test's allocations too and make the suite
 * order-dependent.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "rt/gc_worker.hh"
#include "rt/runtime.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "uarch/perf_counters.hh"
#include "wl/builder.hh"
#include "wl/programs.hh"
#include "wl/suite.hh"

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_frees{0};

} // namespace

// Counting global allocator. Counts must be maintained in every
// overload the standard library may pick (aligned and plain): missing
// one would let an allocation escape the audit.
void *
operator new(std::size_t size)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::aligned_alloc(static_cast<std::size_t>(align),
                                     (size + static_cast<std::size_t>(align) - 1) &
                                         ~(static_cast<std::size_t>(align) - 1)))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return ::operator new(size, align);
}

void
operator delete(void *p) noexcept
{
    if (!p)
        return;
    g_frees.fetch_add(1, std::memory_order_relaxed);
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    ::operator delete(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    ::operator delete(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    ::operator delete(p);
}

void
operator delete[](void *p) noexcept
{
    ::operator delete(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    ::operator delete(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    ::operator delete(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    ::operator delete(p);
}

using namespace dvfs;
using dvfs::sim::EventQueue;

/**
 * Zero heap allocations per steady-state event: once the heap has
 * reached its pending high-water mark, a million fire-and-re-arm
 * cycles over a window of 32 pending events — mixing trivial captures
 * with the largest capture the kernel is sized for — must not move the
 * global allocation counter. No growth of any kernel storage can hide
 * from this count.
 */
TEST(EventAlloc, SteadyStateScheduleRunAllocatesNothing)
{
    EventQueue eq;
    constexpr int kWindow = 32;

    // Prime: drive the heap one past the window's depth, letting its
    // vector do all its growing now.
    for (int i = 0; i <= kWindow; ++i)
        eq.schedule(eq.now() + static_cast<Tick>(i + 1), [] {});
    eq.run();

    const std::uint64_t allocs_before = g_allocs.load();

    // Steady state: each cycle re-arms one event 1-5 ticks ahead and
    // fires the earliest. Odd cycles capture {pointer, pointer,
    // pointer, tick}, the doMutexUnlock shape and the full capacity.
    std::uint64_t sink = 0;
    const void *owner = &allocs_before;
    for (int i = 0; i < kWindow; ++i)
        eq.schedule(eq.now() + static_cast<Tick>(i + 1), [&sink] { ++sink; });
    for (int i = 0; i < 1'000'000; ++i) {
        const Tick when = eq.now() + static_cast<Tick>(i % 5 + 1);
        if (i % 2 == 0) {
            eq.schedule(when, [&sink] { ++sink; });
        } else {
            EventQueue *q = &eq;
            std::uint64_t *s = &sink;
            auto largest = [q, s, owner, when] {
                *s += (q->now() == when && owner != nullptr) ? 10 : 0;
            };
            static_assert(sizeof(largest) == sim::kEventCallbackBytes);
            eq.schedule(when, largest);
        }
        ASSERT_TRUE(eq.runOne());
    }
    EXPECT_EQ(eq.pending(), static_cast<std::uint64_t>(kWindow));
    EXPECT_EQ(eq.run(), static_cast<std::uint64_t>(kWindow));

    EXPECT_EQ(g_allocs.load(), allocs_before)
        << "the event kernel allocated on the steady-state path";
    EXPECT_EQ(sink, kWindow + 500'000u + 500'000u * 10u);
}

/** Sanity: the counting allocator is actually installed. */
TEST(EventAlloc, CountingAllocatorObservesAllocations)
{
    const std::uint64_t before = g_allocs.load();
    auto *p = new std::uint64_t[32];
    EXPECT_GT(g_allocs.load(), before);
    delete[] p;
}

namespace {

/**
 * Pull @p n actions with the lite-timing hint down, after a first pull
 * outside the count; returns the allocations the @p n pulls made and
 * adds the full clusters among them to @p clusters.
 */
std::uint64_t
allocsPerPulls(os::ThreadProgram &prog, os::ThreadContext &ctx, int n,
               std::uint64_t &clusters)
{
    prog.next(ctx);
    const std::uint64_t before = g_allocs.load();
    for (int i = 0; i < n; ++i) {
        os::Action a = prog.next(ctx);
        if (a.kind == os::ActionKind::MissCluster && !a.cluster.lite() &&
            a.cluster.loadCount() > 0)
            ++clusters;
    }
    return g_allocs.load() - before;
}

} // namespace

/**
 * Zero heap allocations per full action: a cluster's addresses live
 * in the producing program's buffer, so neither a workload worker
 * (avrora) nor a GC worker allocates once it has made its first pull.
 */
TEST(ActionAlloc, FullClusterPullsAllocateNothing)
{
    wl::BenchInstance inst = wl::buildBenchmark(
        wl::benchmarkByName("avrora"),
        wl::defaultSystemConfig(Frequency::ghz(2.0)));

    wl::WorkerProgram worker(*inst.shared, 1);
    sim::Rng wrng(2);
    os::ThreadContext wctx{1, wrng};
    std::uint64_t clusters = 0;
    EXPECT_EQ(allocsPerPulls(worker, wctx, 10'000, clusters), 0u)
        << "WorkerProgram allocated while pulling full actions";
    EXPECT_GT(clusters, 1'000u);

    // A GC worker with an endless work package: grab, pop, release,
    // trace clusters, copy, and around again.
    rt::Runtime &runtime = *inst.runtime;
    runtime.workerRemaining(1) = 1ULL << 40;
    rt::GcWorkerProgram gc(runtime, 1);
    sim::Rng grng(3);
    os::ThreadContext gctx{2, grng};
    clusters = 0;
    EXPECT_EQ(allocsPerPulls(gc, gctx, 10'000, clusters), 0u)
        << "GcWorkerProgram allocated while pulling full actions";
    EXPECT_GT(clusters, 1'000u);
}
