#include "serve/service.hh"

#include <algorithm>
#include <array>
#include <cmath>

#include "power/vf_table.hh"
#include "trace/format.hh"

namespace dvfs::serve {

namespace {

net::ErrorResp
errorBody(net::ErrorCode code, std::uint64_t offset,
          const std::string &message)
{
    net::ErrorResp e;
    e.code = static_cast<std::uint32_t>(code);
    e.offset = offset;
    e.message = message;
    return e;
}

net::ErrorResp
unknownTrace()
{
    return errorBody(net::ErrorCode::UnknownTrace, 0,
                     "no cached trace with the given digest; "
                     "UploadTrace it first");
}

constexpr const char *kDefaultOptimalPredictor = "DEP+BURST";

} // namespace

Service::Service(TraceStore &store, const ServerCounters *counters)
    : _store(store), _counters(counters)
{
    for (const auto &p : _engine.predictors())
        _byName.emplace(p->name(), p.get());
}

const pred::Predictor *
Service::predictorByName(const std::string &name) const
{
    auto it = _byName.find(name);
    return it == _byName.end() ? nullptr : it->second;
}

net::Frame
Service::handle(const net::Frame &request)
{
    _requests.fetch_add(1, std::memory_order_relaxed);
    net::Frame resp = serve(request);
    if (std::holds_alternative<net::ErrorResp>(resp.body))
        _errors.fetch_add(1, std::memory_order_relaxed);
    else
        _responses.fetch_add(1, std::memory_order_relaxed);
    return resp;
}

net::Frame
Service::serve(const net::Frame &request)
{
    const std::uint64_t id = request.requestId;
    if (request.isResponse) {
        return net::Frame::response(
            id, errorBody(net::ErrorCode::BadRequest, 0,
                          "a response frame is not a request"));
    }

    net::Body body;
    try {
        if (const auto *m =
                std::get_if<net::UploadTraceReq>(&request.body)) {
            body = handleUpload(*m);
        } else if (const auto *m =
                       std::get_if<net::PredictReq>(&request.body)) {
            body = handlePredict(*m);
        } else if (const auto *m =
                       std::get_if<net::WhatIfGridReq>(&request.body)) {
            body = handleWhatIf(*m);
        } else if (const auto *m =
                       std::get_if<net::OptimalVfReq>(&request.body)) {
            body = handleOptimalVf(*m);
        } else if (std::holds_alternative<net::StatsReq>(request.body)) {
            body = handleStats();
        } else {
            // Unknown message type (monostate): a newer client's
            // extension. Answer, don't disconnect.
            body = errorBody(
                net::ErrorCode::UnknownMessage, 0,
                std::string("message type ") +
                    std::to_string(request.rawType) +
                    " is not served by this protocol version");
        }
    } catch (const trace::TraceError &e) {
        body = errorBody(net::ErrorCode::BadRequest, e.offset(),
                         e.what());
    } catch (const std::exception &e) {
        body = errorBody(net::ErrorCode::Internal, 0, e.what());
    }
    return net::Frame::response(id, std::move(body));
}

net::Body
Service::handleUpload(const net::UploadTraceReq &req)
{
    // TraceError from the strict decode is translated to BadRequest
    // by the caller's catch — offset included, so a client can see
    // where its upload went wrong.
    TraceStore::PutResult put = _store.put(req.image);
    const trace::LoadedTrace &t = put.entry->trace;

    net::UploadTraceResp resp;
    resp.traceDigest = put.digest;
    resp.alreadyCached = put.alreadyCached ? 1 : 0;
    resp.baseMHz = t.baseFreq().toMHz();
    resp.totalTime = t.totalTime();
    resp.epochs = t.epochs().size();
    resp.threads = t.threads().size();
    return resp;
}

net::Body
Service::handlePredict(const net::PredictReq &req)
{
    auto cached = _store.get(req.traceDigest);
    if (!cached)
        return unknownTrace();

    const Frequency target = Frequency::mhz(req.targetMHz);
    std::vector<Tick> predicted(_engine.predictors().size());
    _engine.predictGrid(cached->table, {&target, 1}, predicted);

    net::PredictResp resp;
    resp.baseTotalTime = cached->table.totalTime();
    resp.cells.reserve(predicted.size());
    for (std::size_t p = 0; p < predicted.size(); ++p)
        resp.cells.push_back({_engine.predictorNames()[p], predicted[p]});
    return resp;
}

net::Body
Service::handleWhatIf(const net::WhatIfGridReq &req)
{
    auto cached = _store.get(req.traceDigest);
    if (!cached)
        return unknownTrace();
    if (req.targetsMHz.empty()) {
        return errorBody(net::ErrorCode::BadRequest, 0,
                         "whatIfGrid needs at least one target");
    }

    std::vector<Frequency> targets;
    targets.reserve(req.targetsMHz.size());
    for (std::uint32_t mhz : req.targetsMHz)
        targets.push_back(Frequency::mhz(mhz));

    net::WhatIfGridResp resp;
    resp.predictors = _engine.predictorNames();
    resp.targetsMHz = req.targetsMHz;
    // predictGrid() is target-major, predictor-minor — exactly the
    // response's cell order.
    resp.predicted.resize(targets.size() * resp.predictors.size());
    _engine.predictGrid(cached->table, targets, resp.predicted);
    return resp;
}

net::Body
Service::handleOptimalVf(const net::OptimalVfReq &req)
{
    auto cached = _store.get(req.traceDigest);
    if (!cached)
        return unknownTrace();

    const std::string name =
        req.predictor.empty() ? kDefaultOptimalPredictor : req.predictor;
    const pred::Predictor *p = predictorByName(name);
    if (!p) {
        return errorBody(net::ErrorCode::BadRequest, 0,
                         "unknown predictor '" + name + "'");
    }

    const auto table = power::VfTable::haswell(
        req.stepMHz == 0 ? 125 : req.stepMHz);

    // Admissibility is predicted-vs-predicted: slowdown relative to
    // the predicted time at the table's highest point, so the whole
    // decision is a pure function of the trace (the manager's static
    // query). On the monotone V(f) curve the lowest admissible
    // frequency is the minimum-energy point.
    const pred::PredictionTable &pt = cached->table;
    const Tick at_highest = p->predict(pt, table.highest());
    const double limit =
        static_cast<double>(at_highest) *
        (1.0 + static_cast<double>(req.slowdownPermille) / 1000.0);

    net::OptimalVfResp resp;
    resp.chosenMHz = table.highest().toMHz();
    resp.predictedAtChosen = at_highest;
    resp.predictedAtHighest = at_highest;

    // Points ascend, so the first admissible one is the lowest: walk
    // them one chunk (one pass over the table) at a time and stop
    // after the first chunk that holds one.
    constexpr std::size_t kChunk = pred::Predictor::kTargetChunk;
    const auto &points = table.points();
    std::array<Frequency, kChunk> freqs{};
    std::array<Tick, kChunk> predicted{};
    bool found = false;
    for (std::size_t first = 0; first < points.size() && !found;
         first += kChunk) {
        const std::size_t n = std::min(kChunk, points.size() - first);
        for (std::size_t i = 0; i < n; ++i)
            freqs[i] = points[first + i].freq;
        p->predict(pt, {freqs.data(), n}, {predicted.data(), n});
        for (std::size_t i = 0; i < n && !found; ++i) {
            if (static_cast<double>(predicted[i]) <= limit) {
                resp.chosenMHz = freqs[i].toMHz();
                resp.predictedAtChosen = predicted[i];
                found = true;
            }
        }
    }
    resp.microvolts = static_cast<std::uint64_t>(
        std::llround(table.voltageAt(Frequency::mhz(resp.chosenMHz)) *
                     1e6));
    return resp;
}

net::Body
Service::handleStats()
{
    const TraceStoreStats cache = _store.stats();

    net::StatsResp resp;
    resp.requests = _requests.load(std::memory_order_relaxed);
    resp.responses = _responses.load(std::memory_order_relaxed);
    resp.errors = _errors.load(std::memory_order_relaxed);
    resp.tracesCached = cache.entries;
    resp.cacheBytes = cache.bytes;
    resp.cacheHits = cache.hits;
    resp.cacheMisses = cache.misses;
    resp.cacheEvictions = cache.evictions;
    if (_counters) {
        resp.shedOverload =
            _counters->shedOverload.load(std::memory_order_relaxed);
        resp.batches =
            _counters->batches.load(std::memory_order_relaxed);
        resp.maxBatch =
            _counters->maxBatch.load(std::memory_order_relaxed);
    }
    return resp;
}

} // namespace dvfs::serve
