/**
 * @file
 * Microbenchmarks (google-benchmark) for the simulator substrate:
 * event-queue throughput (bulk, and the steady re-armed window the
 * simulator actually keeps), DRAM/cache model cost, and whole-benchmark
 * simulation rate (the "ablation" data for DESIGN.md's atomic-cluster
 * issue decision: how much wall time one simulated run costs), and
 * sweep-engine overhead at 1/2/8 workers, the FNV-1a digest over
 * zero-heavy and dense input and over one avrora run record, the
 * workload generator's action pulls (full and lite clusters), and the
 * fast-path model's observe and charge of one cluster and one burst
 * shape. The synthetic sweep grid's digest is pinned by
 * SweepGolden.CommittedDigestsReproduceAcrossWorkerCounts.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "exp/experiment.hh"
#include "exp/sweep/fingerprint.hh"
#include "exp/sweep/sweep.hh"
#include "sim/event_queue.hh"
#include "sim/fnv.hh"
#include "sim/rng.hh"
#include "uarch/cache.hh"
#include "uarch/core.hh"
#include "uarch/dram.hh"
#include "uarch/fastpath.hh"
#include "wl/programs.hh"
#include "wl/suite.hh"

using namespace dvfs;

static void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    for (auto _ : state) {
        sim::EventQueue eq;
        std::uint64_t sink = 0;
        for (int i = 0; i < n; ++i)
            eq.schedule(static_cast<Tick>((i * 7919) % 100000 + 1),
                        [&sink] { ++sink; });
        eq.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(100000);

/**
 * The simulator's event traffic: a steady window of N pending events.
 * Each fired event is re-armed 1 ns to 5 us later (femtosecond ticks).
 * Sampled sweeps keep four to six events pending.
 */
static void
BM_EventQueueRearm(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    sim::EventQueue eq;
    sim::Rng rng(3);
    std::vector<Tick> deltas(1024);
    for (Tick &d : deltas)
        d = kTicksPerNs + rng.nextBounded(5 * kTicksPerUs);
    std::size_t fired = 0;
    std::size_t armed = 0;
    auto arm = [&](std::size_t slot) {
        eq.scheduleAfter(deltas[armed++ % deltas.size()],
                         [&fired, slot] { fired = slot; });
    };
    for (std::size_t slot = 0; slot < n; ++slot)
        arm(slot);
    for (auto _ : state) {
        eq.runOne();
        arm(fired);
    }
    benchmark::DoNotOptimize(fired);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueRearm)->Arg(4)->Arg(8)->Arg(64);

namespace {

/** A word with @p bytes low bytes nonzero (0-8), the rest zero. */
std::uint64_t
wordWithBytes(sim::Rng &rng, int bytes)
{
    std::uint64_t v = 0;
    for (int i = 0; i < bytes; ++i)
        v |= rng.nextRange(1, 255) << (i * 8);
    return v;
}

/**
 * 4096 words in the sampled grid's fingerprint mix (69% zero, 11% one
 * significant byte, 14% four, 6% eight) or all eight bytes nonzero.
 */
std::vector<std::uint64_t>
fnvWords(bool zero_heavy)
{
    sim::Rng rng(5);
    std::vector<std::uint64_t> words(4096);
    for (std::uint64_t &w : words) {
        if (!zero_heavy) {
            w = wordWithBytes(rng, 8);
            continue;
        }
        const double u = rng.nextDouble();
        w = wordWithBytes(rng, u < 0.69 ? 0 : u < 0.80 ? 1 : u < 0.94 ? 4 : 8);
    }
    return words;
}

/**
 * 64 KiB in the Figure 3 trace images' mix (58.5% of 8-byte words all
 * zero, 87% of bytes zero) or all bytes nonzero.
 */
std::vector<std::uint8_t>
fnvBytes(bool trace_like)
{
    sim::Rng rng(6);
    std::vector<std::uint8_t> bytes(64 * 1024);
    for (std::size_t i = 0; i < bytes.size(); i += 8) {
        const bool zero_word = trace_like && rng.nextBool(0.585);
        for (std::size_t j = i; j < i + 8; ++j) {
            const bool nonzero =
                !trace_like || (!zero_word && rng.nextBool(0.313));
            bytes[j] = nonzero
                           ? static_cast<std::uint8_t>(rng.nextRange(1, 255))
                           : 0;
        }
    }
    return bytes;
}

} // namespace

/** Fnv1a::mix over 4096 words per iteration; reported per word. */
static void
BM_Fnv1aMix(benchmark::State &state, bool zero_heavy)
{
    const std::vector<std::uint64_t> words = fnvWords(zero_heavy);
    for (auto _ : state) {
        sim::Fnv1a h;
        for (std::uint64_t w : words)
            h.mix(w);
        benchmark::DoNotOptimize(h.digest());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(words.size()));
}
BENCHMARK_CAPTURE(BM_Fnv1aMix, zero_heavy, true);
BENCHMARK_CAPTURE(BM_Fnv1aMix, dense, false);

/** Fnv1a::mixBytes over a 64 KiB payload per iteration. */
static void
BM_Fnv1aMixBytes(benchmark::State &state, bool trace_like)
{
    const std::vector<std::uint8_t> bytes = fnvBytes(trace_like);
    for (auto _ : state) {
        sim::Fnv1a h;
        h.mixBytes(bytes.data(), bytes.size());
        benchmark::DoNotOptimize(h.digest());
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK_CAPTURE(BM_Fnv1aMixBytes, trace_like, true);
BENCHMARK_CAPTURE(BM_Fnv1aMixBytes, dense, false);

/**
 * fingerprintRun over one avrora record (1 GHz, seed 42, exact: about
 * 66k epochs and 256k zero-elided rows), recorded at set-up; reported
 * per epoch row.
 */
static void
BM_FingerprintAvroraRecord(benchmark::State &state)
{
    static const exp::FixedRunOutput out = exp::runFixed(
        wl::benchmarkByName("avrora"), Frequency::mhz(1000));
    for (auto _ : state)
        benchmark::DoNotOptimize(exp::sweep::fingerprintRun(out));
    state.counters["epochs"] =
        static_cast<double>(out.record.epochs.size());
    state.counters["rows"] =
        static_cast<double>(out.record.epochs.rowCount());
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<std::int64_t>(out.record.epochs.rowCount()));
}
BENCHMARK(BM_FingerprintAvroraRecord)->Unit(benchmark::kMillisecond);

/**
 * Workload-generator cost per action: WorkerProgram::next() pulls for
 * avrora's parameters with the lite-timing hint down (full clusters
 * write their addresses into the program's buffer) or up (address-free
 * lite clusters, the fast-forward path). A finished worker is rebuilt.
 */
static void
BM_WorkerProgramNext(benchmark::State &state, bool lite)
{
    wl::SharedWorkload sh;
    sh.params = wl::benchmarkByName("avrora");
    for (std::uint32_t i = 0; i < sh.params.numLocks; ++i)
        sh.locks.push_back(i);
    if (sh.params.barrierEvery > 0)
        sh.barrier = sh.params.numLocks;
    for (std::uint32_t w = 0; w < sh.params.appThreads; ++w)
        sh.workers.push_back(w);
    sim::Rng rng(1);
    os::ThreadContext ctx{1, rng, lite};
    auto prog = std::make_unique<wl::WorkerProgram>(sh, 1);
    for (auto _ : state) {
        os::Action a = prog->next(ctx);
        if (a.kind == os::ActionKind::Exit)
            prog = std::make_unique<wl::WorkerProgram>(sh, 1);
        benchmark::DoNotOptimize(a);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_WorkerProgramNext, lite, true);
BENCHMARK_CAPTURE(BM_WorkerProgramNext, full, false);

static void
BM_DramRandomReads(benchmark::State &state)
{
    uarch::Dram dram;
    sim::Rng rng(1);
    Tick t = 0;
    for (auto _ : state) {
        t += 100000;
        benchmark::DoNotOptimize(
            dram.read(rng.nextBounded(1ULL << 30) & ~63ULL, t));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DramRandomReads);

static void
BM_CacheHierarchyLoad(benchmark::State &state)
{
    uarch::Dram dram;
    uarch::FreqDomain uncore("uncore", Frequency::mhz(1500));
    uarch::CacheHierarchy mem(4, uarch::HierarchyConfig{}, dram, uncore);
    sim::Rng rng(2);
    Tick t = 0;
    // A mix of hot (small region) and cold accesses.
    for (auto _ : state) {
        t += 1000;
        std::uint64_t addr = rng.nextBool(0.7)
                                 ? rng.nextBounded(64 * 1024)
                                 : rng.nextBounded(1ULL << 28);
        benchmark::DoNotOptimize(
            mem.load(0, addr & ~63ULL, t, Frequency::ghz(2.0)));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheHierarchyLoad);

/**
 * Streaming store bursts through the core's store path: 19-line
 * bursts (the Figure 3 grid's mean burst) over fresh lines, so nearly
 * every line misses, evicts a dirty victim and drains through the
 * write port. Reported per line.
 */
static void
BM_CacheHierarchyStoreBurst(benchmark::State &state)
{
    constexpr std::uint32_t kLines = 19;
    constexpr std::uint64_t kBase = 0x1'0000'0000ULL;
    constexpr std::uint64_t kWindow = 1ULL << 30;  // 64x the L3
    uarch::Dram dram;
    uarch::FreqDomain uncore("uncore", Frequency::mhz(1500));
    uarch::FreqDomain domain("core", Frequency::ghz(2.0));
    uarch::CacheHierarchy mem(4, uarch::HierarchyConfig{}, dram, uncore);
    uarch::CoreModel core(0, uarch::CoreConfig{}, mem, domain);
    uarch::PerfCounters pc;
    std::uint64_t offset = 0;
    Tick t = 0;
    for (auto _ : state) {
        t = core.executeStoreBurst(
            uarch::StoreBurstSpec{kBase + offset, kLines, 2}, t, pc);
        offset = (offset + kLines * 64) % kWindow;
        benchmark::DoNotOptimize(t);
    }
    state.SetItemsProcessed(state.iterations() * kLines);
    state.SetLabel("items = store lines");
}
BENCHMARK(BM_CacheHierarchyStoreBurst);

/**
 * Fast-path model cost per action, the sampled mode's fast-forward
 * charge and its detail-window fit: each iteration observes one
 * 5-load miss cluster and one 16-line store burst, then charges one of
 * each as a fast-forward gap would, cycling the busy-core count over
 * the model's 4 occupancy lanes. Every 64 iterations age() promotes
 * the window, as a detail -> fast-forward flip does.
 */
static void
BM_FastPathModel(benchmark::State &state)
{
    static const std::uint64_t kAddrs[] = {1, 2, 3, 4, 5};
    static const std::uint32_t kChainEnds[] = {3, 5};
    uarch::MissClusterSpec full;
    full.addrs = kAddrs;
    full.chainEnds = kChainEnds;
    full.chains = 2;
    full.overlapInstructions = 50;
    uarch::MissClusterSpec lite;
    lite.liteChains = 5;
    lite.liteChainDepth = 1;
    lite.overlapInstructions = 50;
    const uarch::StoreBurstSpec burst{0x1000, 16, 2};

    uarch::FastPathModel model(4);
    uarch::PerfCounters delta;
    delta.computeTime = 600;
    delta.trueMemTime = 300;
    delta.critNonscaling = 250;
    delta.l3Hits = 2;
    delta.dramLoads = 1;
    delta.sqFullTime = 40;
    for (std::uint32_t busy = 1; busy <= 4; ++busy) {
        for (std::uint32_t i = 0; i < uarch::FastPathModel::kMinClusterObs;
             ++i) {
            model.observeCluster(full, busy, 1000 + busy, delta);
            model.observeBurst(burst, busy, 900 + busy, delta);
        }
    }
    model.age();

    uarch::PerfCounters pc;
    std::uint32_t n = 0;
    for (auto _ : state) {
        const std::uint32_t busy = 1 + (n & 3);
        model.observeCluster(full, busy, 1000 + busy, delta);
        model.observeBurst(burst, busy, 900 + busy, delta);
        Tick e = 0;
        benchmark::DoNotOptimize(model.chargeCluster(lite, busy, e, pc));
        benchmark::DoNotOptimize(model.chargeBurst(burst, busy, e, pc));
        if ((++n & 63) == 0)
            model.age();
    }
    benchmark::DoNotOptimize(pc);
    state.SetItemsProcessed(state.iterations() * 4);
    state.SetLabel("items = observed + charged actions");
}
BENCHMARK(BM_FastPathModel);

/** Simulation rate: events per wall second for a full benchmark. */
static void
BM_FullRunSynthetic(benchmark::State &state)
{
    auto params = wl::syntheticSmall(4, 150);
    std::uint64_t events = 0;
    for (auto _ : state) {
        auto out = exp::runFixed(params, Frequency::ghz(2.0));
        events += out.events;
        benchmark::DoNotOptimize(out.totalTime);
    }
    state.SetItemsProcessed(static_cast<int64_t>(events));
    state.SetLabel("items = simulated events");
}
BENCHMARK(BM_FullRunSynthetic);

static void
BM_FullRunDacapo(benchmark::State &state)
{
    auto params = wl::benchmarkByName("pmd.scale");
    std::uint64_t events = 0;
    for (auto _ : state) {
        auto out = exp::runFixed(params, Frequency::ghz(2.0));
        events += out.events;
        benchmark::DoNotOptimize(out.totalTime);
    }
    state.SetItemsProcessed(static_cast<int64_t>(events));
    state.SetLabel("one full pmd.scale ground-truth run per iteration");
}
BENCHMARK(BM_FullRunDacapo);

/** Same run under interval sampling: the fast-path speedup, isolated. */
static void
BM_FullRunDacapoSampled(benchmark::State &state)
{
    auto params = wl::benchmarkByName("pmd.scale");
    exp::RunOptions opts;
    opts.mode = exp::SimMode::Sampled;
    std::uint64_t events = 0;
    for (auto _ : state) {
        auto out = exp::runFixed(params, Frequency::ghz(2.0), opts);
        events += out.events;
        benchmark::DoNotOptimize(out.totalTime);
    }
    state.SetItemsProcessed(static_cast<int64_t>(events));
    state.SetLabel("one sampled pmd.scale run per iteration");
}
BENCHMARK(BM_FullRunDacapoSampled);

/** Sweep-engine overhead: a grid of tiny synthetic runs per worker count. */
static void
BM_SweepSynthetic(benchmark::State &state)
{
    const auto workers = static_cast<unsigned>(state.range(0));
    exp::sweep::SweepSpec spec;
    spec.workloads = {wl::syntheticSmall(2, 40)};
    spec.frequencies = {Frequency::ghz(1.0), Frequency::ghz(2.0),
                        Frequency::ghz(3.0), Frequency::ghz(4.0)};
    spec.seeds = exp::sweep::SweepSpec::replicateSeeds(42, 4);

    for (auto _ : state) {
        auto res = exp::sweep::runSweep(spec, workers);
        benchmark::DoNotOptimize(res.cells.front().totalTime);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(spec.cellCount()));
    state.SetLabel("items = sweep cells");
}
BENCHMARK(BM_SweepSynthetic)->Arg(1)->Arg(2)->Arg(8)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
