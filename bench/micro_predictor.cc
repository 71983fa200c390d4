/**
 * @file
 * Microbenchmarks (google-benchmark) for the predictor layer: what the
 * paper's "kernel module" would pay online, per epoch and per quantum.
 *
 * Each predictor is constructed over its ModelSpec as the harnesses
 * construct it, and the Figure 3 walks take PredictorRegistry's
 * figure3Set(), the set fig3 and the replay engine run. The
 * ServeHandle ones time dvfsd's in-process handler on a cached
 * Figure 3 trace, and the FrameCodec ones the DVFSRPC1 encode and
 * decode of the same requests and replies.
 */

#include <benchmark/benchmark.h>


#include "exp/experiment.hh"
#include "mgr/energy_manager.hh"
#include "pred/registry.hh"
#include "pred/table.hh"
#include "serve/service.hh"
#include "trace/reader.hh"
#include "trace/writer.hh"
#include "wl/suite.hh"

using namespace dvfs;
using namespace dvfs::pred;

namespace {

/** A reusable mid-size record (built once per process). */
const RunRecord &
sampleRecord()
{
    static RunRecord rec = [] {
        auto params = wl::syntheticSmall(4, 300);
        params.lockProb = 0.4;
        return exp::runFixed(params, Frequency::ghz(1.0)).record;
    }();
    return rec;
}

} // namespace

static void
BM_DepBurstPredict(benchmark::State &state)
{
    const RunRecord &rec = sampleRecord();
    const DepPredictor p({BaseEstimator::Crit, true});
    for (auto _ : state)
        benchmark::DoNotOptimize(p.predict(rec, Frequency::ghz(4.0)));
    state.counters["epochs"] =
        static_cast<double>(rec.epochs.size());
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(rec.epochs.size()));
}
BENCHMARK(BM_DepBurstPredict);

static void
BM_DepPerEpochPredict(benchmark::State &state)
{
    const RunRecord &rec = sampleRecord();
    const DepPredictor p({BaseEstimator::Crit, true}, false);
    for (auto _ : state)
        benchmark::DoNotOptimize(p.predict(rec, Frequency::ghz(4.0)));
}
BENCHMARK(BM_DepPerEpochPredict);

static void
BM_MCritPredict(benchmark::State &state)
{
    const RunRecord &rec = sampleRecord();
    const MCritPredictor p({BaseEstimator::Crit, false});
    for (auto _ : state)
        benchmark::DoNotOptimize(p.predict(rec, Frequency::ghz(4.0)));
}
BENCHMARK(BM_MCritPredict);

static void
BM_CoopPredict(benchmark::State &state)
{
    const RunRecord &rec = sampleRecord();
    const CoopPredictor p({BaseEstimator::Crit, false});
    for (auto _ : state)
        benchmark::DoNotOptimize(p.predict(rec, Frequency::ghz(4.0)));
}
BENCHMARK(BM_CoopPredict);

/** Gathering the prediction table (done once per served trace). */
static void
BM_PredictionTableBuild(benchmark::State &state)
{
    const RunRecord &rec = sampleRecord();
    for (auto _ : state) {
        PredictionTable table{RecordView(rec)};
        benchmark::DoNotOptimize(table.epochRows().data());
    }
}
BENCHMARK(BM_PredictionTableBuild);

/**
 * The Figure 3 set at N targets from a prepared table: one Predict (1
 * target), one what-if (4) or a full optimal-V/f scan (25).
 */
static void
BM_Figure3Set(benchmark::State &state)
{
    const RunRecord &rec = sampleRecord();
    const PredictionTable table{RecordView(rec)};
    const auto zoo = PredictorRegistry::instance().figure3Set();
    const auto n = static_cast<std::uint32_t>(state.range(0));
    std::vector<Frequency> targets;
    for (std::uint32_t i = 0; i < n; ++i)
        targets.push_back(
            Frequency::mhz(n == 1 ? 4000 : 1000 + 3000 * i / (n - 1)));
    std::vector<Tick> out(n);
    for (auto _ : state) {
        for (const auto &p : zoo) {
            p->predict(table, targets, out);
            benchmark::DoNotOptimize(out.data());
        }
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(zoo.size() * n));
}
BENCHMARK(BM_Figure3Set)->Arg(1)->Arg(4)->Arg(25);

/**
 * The energy manager's decision for one quantum: its table (32 epochs,
 * recorded at 4 GHz), the highest point, then the ascending scan of
 * the 25 Haswell points under the default slowdown bound.
 */
static void
BM_ManagerQuantumSweep(benchmark::State &state)
{
    const RunRecord &rec = sampleRecord();
    const DepPredictor p({BaseEstimator::Crit, true}, true);
    const auto vf = power::VfTable::haswell();
    const std::vector<Frequency> points = vf.frequencies();
    const double bound = mgr::ManagerConfig{}.tolerableSlowdown;
    const std::size_t quantum = std::min<std::size_t>(32, rec.epochs.size());
    for (auto _ : state) {
        const PredictionTable table(rec.epochs, 0, quantum, vf.highest());
        const Tick t_ref = p.predict(table, vf.highest());
        Frequency chosen = vf.highest();
        p.scanAscending(table, points, [&](std::size_t i, Tick t) {
            if (static_cast<double>(t) / static_cast<double>(t_ref) - 1.0 >
                bound)
                return false;
            chosen = points[i];
            return true;
        });
        benchmark::DoNotOptimize(chosen);
    }
}
BENCHMARK(BM_ManagerQuantumSweep);

/** pmd.scale's Figure 3 trace: its 1 GHz cell at fig3's seed. */
const std::vector<std::uint8_t> &
figure3Trace()
{
    static const std::vector<std::uint8_t> image = [] {
        constexpr std::uint64_t kSeed = 42;
        for (const auto &params : wl::dacapoSuite()) {
            if (params.name != "pmd.scale")
                continue;
            exp::RunOptions opts;
            opts.seed = kSeed;
            const auto out = exp::runFixed(params, Frequency::ghz(1.0), opts);
            return trace::encodeTrace(out.record, {params.name, kSeed});
        }
        return std::vector<std::uint8_t>{};
    }();
    return image;
}

/** Upload the trace to @p service; @p req, with its digest, as a frame. */
template <class Request>
net::Frame
uploadedRequest(serve::Service &service, Request req)
{
    net::UploadTraceReq up;
    up.image = figure3Trace();
    const net::Frame uploaded =
        service.handle(net::Frame::request(0, std::move(up)));
    req.traceDigest =
        std::get<net::UploadTraceResp>(uploaded.body).traceDigest;
    return net::Frame::request(1, std::move(req));
}

/**
 * One dvfsd request, @p req with the trace's digest, served by
 * Service::handle after one upload: the mix's Predict at one V/f
 * point, its 4-target what-if and its optimal-V/f scan.
 */
template <class Request>
static void
BM_ServeHandle(benchmark::State &state, Request req)
{
    serve::TraceStore store(256u << 20);
    serve::Service service(store);
    const net::Frame request = uploadedRequest(service, std::move(req));
    for (auto _ : state) {
        net::Frame reply = service.handle(request);
        benchmark::DoNotOptimize(reply.body);
    }
}
BENCHMARK_CAPTURE(BM_ServeHandle, Predict, net::PredictReq{0, 3000});
BENCHMARK_CAPTURE(BM_ServeHandle, WhatIf,
                  net::WhatIfGridReq{0, {1000, 2000, 3000, 4000}});
BENCHMARK_CAPTURE(BM_ServeHandle, OptimalVf,
                  net::OptimalVfReq{0, 100, 0, ""});

/**
 * The DVFSRPC1 codec on the same exchanges: encode and decode the
 * request frame and the reply frame Service::handle gives it, the
 * client's and the server's codec work for one request.
 */
template <class Request>
static void
BM_FrameCodec(benchmark::State &state, Request req)
{
    serve::TraceStore store(256u << 20);
    serve::Service service(store);
    const net::Frame request = uploadedRequest(service, std::move(req));
    const net::Frame reply = service.handle(request);
    for (auto _ : state) {
        net::Frame req_back = net::decodeFrame(net::encodeFrame(request));
        net::Frame reply_back = net::decodeFrame(net::encodeFrame(reply));
        benchmark::DoNotOptimize(req_back.body);
        benchmark::DoNotOptimize(reply_back.body);
    }
}
BENCHMARK_CAPTURE(BM_FrameCodec, Predict, net::PredictReq{0, 3000});
BENCHMARK_CAPTURE(BM_FrameCodec, WhatIf,
                  net::WhatIfGridReq{0, {1000, 2000, 3000, 4000}});
BENCHMARK_CAPTURE(BM_FrameCodec, OptimalVf,
                  net::OptimalVfReq{0, 100, 0, ""});

/** Trace encode cost for the sample record. */
static void
BM_TraceEncode(benchmark::State &state)
{
    const RunRecord &rec = sampleRecord();
    trace::TraceMeta meta{"micro", 42};
    std::size_t bytes = 0;
    for (auto _ : state) {
        auto image = trace::encodeTrace(rec, meta);
        bytes = image.size();
        benchmark::DoNotOptimize(image.data());
    }
    state.counters["bytes"] = static_cast<double>(bytes);
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(bytes));
}
BENCHMARK(BM_TraceEncode);

/** Trace decode + validate cost (digest check included). */
static void
BM_TraceDecode(benchmark::State &state)
{
    const RunRecord &rec = sampleRecord();
    const auto image = trace::encodeTrace(rec, {"micro", 42});
    for (auto _ : state) {
        auto loaded = trace::decodeTrace(image);
        benchmark::DoNotOptimize(loaded.record().epochs.size());
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(image.size()));
}
BENCHMARK(BM_TraceDecode);

BENCHMARK_MAIN();
