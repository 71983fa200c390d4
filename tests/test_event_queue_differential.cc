/**
 * @file
 * Differential and edge-case tests for the timing-wheel event kernel.
 *
 * The wheel (EventQueue) must be observationally identical to the
 * retired binary-heap implementation (ReferenceEventQueue), which is
 * kept as an executable specification of the dispatch-order contract:
 * earliest tick first, insertion order within a tick. A seeded random
 * op stream — schedule, cancel, same-tick reschedule from inside
 * callbacks, partial runUntil — is driven through both queues and the
 * full observable trace (firing order, firing ticks, cancel results)
 * must match bit for bit.
 *
 * The edge-case tests pin down the wheel-specific machinery the
 * random stream is unlikely to stress deterministically: scheduling
 * at the current tick, cancelling entries parked in the far-future
 * overflow list (before and after a rebase), cursor movement across
 * every wheel level, and pool reuse under a million schedule/cancel
 * cycles.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "reference_event_queue.hh"
#include "sim/rng.hh"

using namespace dvfs;
using sim::EventId;

namespace {

/** One observable step: an event firing or a cancel result. */
using TraceStep = std::pair<std::uint64_t, Tick>;

/** Token space for cancel observations, disjoint from event tokens. */
constexpr std::uint64_t kCancelHit = 0x8000000000000000ull;
constexpr std::uint64_t kCancelMiss = 0x4000000000000000ull;

/**
 * Drive a seeded op stream through @p Queue and return the trace.
 *
 * All randomness is drawn *outside* the callbacks, so both queue
 * implementations see exactly the same op stream; any divergence in
 * the trace is a divergence in queue behaviour.
 */
template <typename Queue>
std::vector<TraceStep>
runScript(std::uint32_t seed, unsigned ops)
{
    Queue q;
    std::vector<TraceStep> trace;
    std::vector<EventId> ids;  // every id ever returned, stale or not
    std::uint64_t next_tok = 1;
    std::uint64_t child_tok = 1'000'000;

    sim::Rng rng(seed);
    for (unsigned i = 0; i < ops; ++i) {
        const std::uint32_t r = static_cast<std::uint32_t>(
            rng.nextBounded(100));
        if (r < 55 || ids.empty()) {
            // Schedule. A quarter of events land on an already-used
            // tick bucket (coarse quantization) to force same-tick
            // FIFO ordering; some spawn a same-tick child when they
            // fire, re-entering the live dispatch batch.
            Tick delta = rng.nextBool(0.25)
                             ? rng.nextBounded(8) * 1000
                             : rng.nextBounded(300'000);
            const bool spawn_same_tick = rng.nextBool(0.15);
            const bool spawn_later = rng.nextBool(0.15);
            const std::uint64_t tok = next_tok++;
            Queue *qp = &q;
            auto *tp = &trace;
            auto *ct = &child_tok;
            ids.push_back(q.schedule(
                q.now() + delta,
                [qp, tp, ct, tok, spawn_same_tick, spawn_later] {
                    tp->emplace_back(tok, qp->now());
                    if (spawn_same_tick) {
                        const std::uint64_t c = (*ct)++;
                        qp->schedule(qp->now(), [qp, tp, c] {
                            tp->emplace_back(c, qp->now());
                        });
                    }
                    if (spawn_later) {
                        const std::uint64_t c = (*ct)++;
                        qp->schedule(qp->now() + 777, [qp, tp, c] {
                            tp->emplace_back(c, qp->now());
                        });
                    }
                }));
        } else if (r < 80) {
            // Cancel a random id (possibly stale); the boolean result
            // is part of the observable trace.
            const EventId id =
                ids[static_cast<std::size_t>(rng.nextBounded(ids.size()))];
            trace.emplace_back(q.cancel(id) ? kCancelHit : kCancelMiss,
                               q.now());
        } else {
            q.runUntil(q.now() + rng.nextBounded(500'000));
        }
    }
    q.run();
    return trace;
}

/**
 * Long-horizon stream: deltas big enough to exercise upper wheel
 * levels and the overflow list against the reference.
 */
template <typename Queue>
std::vector<TraceStep>
longHorizonScript(std::uint32_t seed)
{
    Queue q;
    std::vector<TraceStep> trace;
    std::uint64_t tok = 1;
    sim::Rng rng(seed);
    for (unsigned i = 0; i < 300; ++i) {
        // Spread deltas across ~2^50 so placements hit every level
        // and the overflow path.
        const unsigned level_bits =
            static_cast<unsigned>(rng.nextBounded(50));
        Tick delta = (Tick{1} << level_bits) + rng.nextBounded(1000);
        const std::uint64_t t = tok++;
        auto *tp = &trace;
        Queue *qp = &q;
        q.schedule(q.now() + delta, [qp, tp, t] {
            tp->emplace_back(t, qp->now());
        });
        if (i % 7 == 0)
            q.runOne();
    }
    q.run();
    return trace;
}

} // namespace

TEST(EventQueueDifferential, WheelMatchesReferenceHeap)
{
    for (std::uint32_t seed : {1u, 2u, 3u, 77u, 1234u}) {
        auto wheel = runScript<sim::EventQueue>(seed, 2000);
        auto heap = runScript<sim::ReferenceEventQueue>(seed, 2000);
        ASSERT_EQ(wheel.size(), heap.size()) << "seed " << seed;
        for (std::size_t i = 0; i < wheel.size(); ++i) {
            ASSERT_EQ(wheel[i], heap[i])
                << "seed " << seed << " step " << i;
        }
    }
}

TEST(EventQueueDifferential, LongHorizonStreamMatches)
{
    for (std::uint32_t seed : {5u, 6u, 7u}) {
        auto wheel = longHorizonScript<sim::EventQueue>(seed);
        auto heap = longHorizonScript<sim::ReferenceEventQueue>(seed);
        EXPECT_EQ(wheel, heap) << "seed " << seed;
    }
}

TEST(EventQueueWheel, ScheduleAtCurrentTickFiresInBatch)
{
    sim::EventQueue q;
    std::vector<int> order;
    // Before any dispatch, now() == 0; scheduling at exactly now is
    // legal and fires.
    q.schedule(0, [&] { order.push_back(1); });
    q.schedule(0, [&] {
        order.push_back(2);
        // Same-tick child from inside the batch: runs after every
        // previously inserted tick-0 event, before any later tick.
        q.schedule(q.now(), [&] { order.push_back(3); });
    });
    q.schedule(5, [&] { order.push_back(4); });
    EXPECT_EQ(q.runUntil(10), 4u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_EQ(q.now(), 5u);
}

TEST(EventQueueWheel, CancelOverflowAndCascadedEntries)
{
    sim::EventQueue q;
    std::vector<int> fired;

    // Beyond the 48-bit horizon: parked on the overflow list.
    const Tick far = Tick{1} << 49;
    EventId f1 = q.schedule(far, [&] { fired.push_back(1); });
    EventId f2 = q.schedule(far + 5, [&] { fired.push_back(2); });
    EventId f3 = q.schedule(far + 5, [&] { fired.push_back(3); });
    q.schedule(100, [&] { fired.push_back(0); });
    EXPECT_EQ(q.pending(), 4u);

    // Cancel straight off the overflow list — including the entry
    // holding the overflow minimum, forcing the exact-min rescan.
    EXPECT_TRUE(q.cancel(f1));
    EXPECT_FALSE(q.cancel(f1));  // already gone
    EXPECT_EQ(q.pending(), 3u);

    // Fire the near event, then step into the far epoch: the rebase
    // pulls f2/f3 out of overflow into the wheel.
    EXPECT_TRUE(q.runOne());
    EXPECT_EQ(fired, std::vector<int>{0});
    EXPECT_TRUE(q.runOne());
    EXPECT_EQ(q.now(), far + 5);
    EXPECT_EQ(fired, (std::vector<int>{0, 2}));

    // f3 fired in the same batch? No: runOne dispatches one event.
    // It is now a live wheel entry at the current tick; cancel it
    // post-cascade.
    EXPECT_TRUE(q.cancel(f3));
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.run(), 0u);
}

TEST(EventQueueWheel, CursorCrossesEveryLevel)
{
    sim::EventQueue q;
    std::vector<Tick> fired;
    // One event per wheel level, plus byte-boundary neighbours that
    // force cascades (255 -> 256 crosses level 0 into level 1, etc).
    std::vector<Tick> ticks;
    for (unsigned level = 0; level < 6; ++level) {
        const Tick base = Tick{1} << (8 * level);
        ticks.push_back(base);
        ticks.push_back(base + 1);
        if (level > 0)
            ticks.push_back(base - 1);  // last slot of the level below
    }
    ticks.push_back((Tick{1} << 48) - 1);  // horizon edge: still wheel
    ticks.push_back(Tick{1} << 48);        // first overflow tick
    // Insert in reverse so wheel order, not insertion order, decides.
    for (auto it = ticks.rbegin(); it != ticks.rend(); ++it) {
        Tick t = *it;
        q.schedule(t, [&fired, &q] { fired.push_back(q.now()); });
    }
    EXPECT_EQ(q.run(), ticks.size());
    std::vector<Tick> expect = ticks;
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(fired, expect);
}

TEST(EventQueueWheel, SameTickFifoSurvivesCascade)
{
    sim::EventQueue q;
    std::vector<int> order;
    // Two same-tick events filed at an upper level (tick differs from
    // the cursor in byte 3): the cascade down to level 0 must keep
    // their insertion order.
    const Tick t = (Tick{3} << 24) + 42;
    q.schedule(t, [&] { order.push_back(1); });
    q.schedule(t, [&] { order.push_back(2); });
    q.schedule(7, [&] { order.push_back(0); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueueWheel, MillionScheduleCancelReusesPool)
{
    sim::EventQueue q;
    // A window of live timers being repeatedly re-armed (the OS
    // timeslice pattern): entry count must stay at the window's
    // high-water mark, not grow with the number of cycles.
    constexpr unsigned kWindow = 32;
    std::vector<EventId> window;
    std::uint64_t fired = 0;
    Tick t = 1;
    for (unsigned i = 0; i < kWindow; ++i)
        window.push_back(q.schedule(t += 10'000, [&] { ++fired; }));
    for (unsigned i = 0; i < 1'000'000; ++i) {
        const std::size_t k = i % kWindow;
        ASSERT_TRUE(q.cancel(window[k]));
        window[k] = q.schedule(t += 10'000, [&] { ++fired; });
    }
    EXPECT_LE(q.entriesAllocated(), kWindow + 1);
    EXPECT_EQ(q.run(), kWindow);
    EXPECT_EQ(fired, kWindow);
}
