/**
 * @file
 * Differential and edge-case tests for the binary-heap event kernel.
 *
 * The kernel (EventQueue) must be observationally identical to
 * ReferenceEventQueue, a plain priority queue kept as an executable
 * specification of the dispatch-order contract: earliest tick first,
 * insertion order within a tick. Seeded random op streams — schedule,
 * same-tick reschedule from inside callbacks, partial runUntil — are
 * driven through both queues and the full observable trace (firing
 * order, firing ticks, now() after a runUntil) must match bit for bit.
 * One stream is shaped like the simulator's measured traffic: four to
 * eight pending events re-armed at ns-to-us deltas.
 *
 * The edge-case tests pin down what a random stream is unlikely to hit
 * deterministically: scheduling at the current tick, far-future ticks
 * and ticks at every power-of-256 boundary. Every capture fits the
 * kernel's 32-byte callback capacity. The EventQueueWheel suite keeps the name it
 * had under the timing-wheel kernel this one replaced; its cases now
 * run against the heap.
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

namespace {

/** One observable step: an event firing or now() after a runUntil. */
using TraceStep = std::pair<std::uint64_t, Tick>;

/** Trace token marking now() after a runUntil. */
constexpr std::uint64_t kNowMark = 0x2000000000000000ull;

/**
 * runScript's spawn flags ride in a token's high bits, so its
 * callback's captures fit the kernel's 32-byte capacity; tokens stay
 * below kTokenMask.
 */
constexpr std::uint64_t kSpawnSameTick = 1ull << 48;
constexpr std::uint64_t kSpawnLater = 1ull << 49;
constexpr std::uint64_t kTokenMask = kSpawnSameTick - 1;

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
    std::uint64_t next_tok = 1;
    std::uint64_t child_tok = 1'000'000;

    sim::Rng rng(seed);
    for (unsigned i = 0; i < ops; ++i) {
        const std::uint32_t r = static_cast<std::uint32_t>(
            rng.nextBounded(100));
        if (r < 70) {
            // Schedule. A quarter of events land on an already-used
            // tick bucket (coarse quantization) to force same-tick
            // FIFO ordering; some spawn a same-tick child when they
            // fire, re-entering the live dispatch batch.
            Tick delta = rng.nextBool(0.25)
                             ? rng.nextBounded(8) * 1000
                             : rng.nextBounded(300'000);
            const bool spawn_same_tick = rng.nextBool(0.15);
            const bool spawn_later = rng.nextBool(0.15);
            const std::uint64_t tok =
                next_tok++ | (spawn_same_tick ? kSpawnSameTick : 0) |
                (spawn_later ? kSpawnLater : 0);
            Queue *qp = &q;
            auto *tp = &trace;
            auto *ct = &child_tok;
            q.schedule(
                q.now() + delta,
                [qp, tp, ct, tok] {
                    tp->emplace_back(tok & kTokenMask, qp->now());
                    if (tok & kSpawnSameTick) {
                        const std::uint64_t c = (*ct)++;
                        qp->schedule(qp->now(), [qp, tp, c] {
                            tp->emplace_back(c, qp->now());
                        });
                    }
                    if (tok & kSpawnLater) {
                        const std::uint64_t c = (*ct)++;
                        qp->schedule(qp->now() + 777, [qp, tp, c] {
                            tp->emplace_back(c, qp->now());
                        });
                    }
                });
        } else {
            q.runUntil(q.now() + rng.nextBounded(500'000));
        }
    }
    q.run();
    return trace;
}

/**
 * The simulator's traffic: a window of 4-8 pending events re-armed at
 * ns-to-us deltas (femtosecond ticks). Fired events re-arm themselves,
 * sometimes at the same tick; runUntil limits fall before, at and
 * after now().
 */
template <typename Queue>
std::vector<TraceStep>
windowScript(std::uint32_t seed, unsigned ops)
{
    Queue q;
    std::vector<TraceStep> trace;
    std::uint64_t next_tok = 1;
    sim::Rng rng(seed);

    // A delta of 0 ns to 5 us; one in four lands on a whole ns of a
    // few, so distinct events collide on one tick.
    auto delta = [&rng]() -> Tick {
        return rng.nextBool(0.25) ? rng.nextBounded(4) * kTicksPerNs
                                  : rng.nextBounded(5 * kTicksPerUs);
    };
    auto arm = [&](Tick when) {
        const std::uint64_t tok = next_tok++;
        const bool rearm = rng.nextBool(0.7);
        const Tick rearm_delta = delta();
        // kTickNever: the event does not re-arm.
        const Tick after = rearm ? rearm_delta : kTickNever;
        Queue *qp = &q;
        auto *tp = &trace;
        q.schedule(when, [qp, tp, tok, after] {
            tp->emplace_back(tok, qp->now());
            if (after != kTickNever) {
                const std::uint64_t child = tok | 0x1000000000000000ull;
                qp->schedule(qp->now() + after, [qp, tp, child] {
                    tp->emplace_back(child, qp->now());
                });
            }
        });
    };

    for (unsigned i = 0; i < ops; ++i) {
        while (q.pending() < 4)
            arm(q.now() + delta());
        const std::uint32_t r =
            static_cast<std::uint32_t>(rng.nextBounded(100));
        if (r < 80) {
            q.runOne();
        } else if (r < 90) {
            if (q.pending() < 8)
                arm(q.now() + delta());
        } else {
            const Tick back = rng.nextBounded(2 * kTicksPerUs);
            const Tick limit = rng.nextBool(0.3)
                                   ? (q.now() > back ? q.now() - back : 0)
                                   : q.now() + delta();
            q.runUntil(limit);
            trace.emplace_back(kNowMark, q.now());
        }
    }
    q.run();
    return trace;
}

/**
 * Long-horizon stream: deltas from 1 tick to 2^50 ticks, so keys of
 * wildly different magnitude share the heap.
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
        // Spread deltas across ~2^50.
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
        auto kernel = runScript<sim::EventQueue>(seed, 2000);
        auto ref = runScript<sim::ReferenceEventQueue>(seed, 2000);
        ASSERT_EQ(kernel.size(), ref.size()) << "seed " << seed;
        for (std::size_t i = 0; i < kernel.size(); ++i) {
            ASSERT_EQ(kernel[i], ref[i])
                << "seed " << seed << " step " << i;
        }
    }
}

TEST(EventQueueDifferential, LongHorizonStreamMatches)
{
    for (std::uint32_t seed : {5u, 6u, 7u}) {
        auto kernel = longHorizonScript<sim::EventQueue>(seed);
        auto ref = longHorizonScript<sim::ReferenceEventQueue>(seed);
        EXPECT_EQ(kernel, ref) << "seed " << seed;
    }
}

TEST(EventQueueDifferential, SmallPendingWindowStreamMatches)
{
    for (std::uint32_t seed : {11u, 12u, 13u, 99u, 4321u}) {
        auto kernel = windowScript<sim::EventQueue>(seed, 20'000);
        auto ref = windowScript<sim::ReferenceEventQueue>(seed, 20'000);
        ASSERT_EQ(kernel.size(), ref.size()) << "seed " << seed;
        EXPECT_GT(kernel.size(), 20'000u) << "seed " << seed;
        for (std::size_t i = 0; i < kernel.size(); ++i) {
            ASSERT_EQ(kernel[i], ref[i])
                << "seed " << seed << " step " << i;
        }
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

TEST(EventQueueWheel, CursorCrossesEveryLevel)
{
    sim::EventQueue q;
    std::vector<Tick> fired;
    // Ticks at every power of 256 up to 2^40 and their neighbours,
    // the 2^48 edge and beyond: keys of every magnitude in one heap.
    std::vector<Tick> ticks;
    for (unsigned level = 0; level < 6; ++level) {
        const Tick base = Tick{1} << (8 * level);
        ticks.push_back(base);
        ticks.push_back(base + 1);
        if (level > 0)
            ticks.push_back(base - 1);
    }
    ticks.push_back((Tick{1} << 48) - 1);
    ticks.push_back(Tick{1} << 48);
    // Insert in reverse so tick order, not insertion order, decides.
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
    // Two same-tick events far from the current tick, inserted
    // before a nearer one: they must still fire in insertion order.
    const Tick t = (Tick{3} << 24) + 42;
    q.schedule(t, [&] { order.push_back(1); });
    q.schedule(t, [&] { order.push_back(2); });
    q.schedule(7, [&] { order.push_back(0); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}
