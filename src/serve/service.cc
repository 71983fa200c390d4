#include "serve/service.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "power/vf_table.hh"
#include "trace/format.hh"

namespace dvfs::serve {

namespace {

net::ErrorResp
unknownTrace()
{
    return net::errorResp(net::ErrorCode::UnknownTrace, 0,
                          "no cached trace with the given digest; "
                          "UploadTrace it first");
}

constexpr const char *kDefaultOptimalPredictor = "DEP+BURST";

/** Most targets whose WhatIf reply fits in kMaxPayloadBytes. */
std::size_t
maxWhatIfTargets(const std::vector<std::string> &predictors)
{
    // Request id, type word, reserved word, trailing-section count and
    // the two list counts (a varint is at most 10 bytes); then each
    // name, and per target its MHz and one tick per predictor.
    std::size_t fixed = 8 + 4 + 4 + 4 + 10 + 10;
    for (const std::string &p : predictors)
        fixed += 10 + p.size();
    return (net::kMaxPayloadBytes - fixed) / (4 + 8 * predictors.size());
}

} // namespace

Service::Service(TraceStore &store, const ServerCounters *counters)
    : _store(store), _counters(counters)
{
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
            id, net::errorResp(net::ErrorCode::BadRequest, 0,
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
            body = net::errorResp(
                net::ErrorCode::UnknownMessage, 0,
                std::string("message type ") +
                    std::to_string(request.rawType) +
                    " is not served by this protocol version");
        }
    } catch (const trace::TraceError &e) {
        body = net::errorResp(net::ErrorCode::BadRequest, e.offset(),
                              e.what());
    } catch (const std::exception &e) {
        body = net::errorResp(net::ErrorCode::Internal, 0, e.what());
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
    const CachedTrace &t = *put.entry;

    net::UploadTraceResp resp;
    resp.traceDigest = put.digest;
    resp.alreadyCached = put.alreadyCached ? 1 : 0;
    resp.baseMHz = t.table.baseFreq().toMHz();
    resp.totalTime = t.table.totalTime();
    resp.epochs = t.table.epochs().size();
    resp.threads = t.threads;
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
    cached->predictGrid({&target, 1}, predicted);

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
        return net::errorResp(net::ErrorCode::BadRequest, 0,
                              "whatIfGrid needs at least one target");
    }
    // The reply must fit in one frame, or no client could read it.
    const std::size_t max_targets =
        maxWhatIfTargets(_engine.predictorNames());
    if (req.targetsMHz.size() > max_targets) {
        return net::errorResp(
            net::ErrorCode::BadRequest, 0,
            "whatIfGrid asks for " + std::to_string(req.targetsMHz.size()) +
                " targets; one reply holds at most " +
                std::to_string(max_targets));
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
    cached->predictGrid(targets, resp.predicted);
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
    const std::vector<std::string> &names = _engine.predictorNames();
    const auto named = std::find(names.begin(), names.end(), name);
    if (named == names.end()) {
        return net::errorResp(net::ErrorCode::BadRequest, 0,
                              "unknown predictor '" + name + "'");
    }
    const auto p = static_cast<std::size_t>(named - names.begin());

    const auto table = power::VfTable::haswell(
        req.stepMHz == 0 ? 125 : req.stepMHz);
    const std::vector<Frequency> freqs = table.frequencies();

    // Admissibility is predicted-vs-predicted: slowdown relative to
    // the predicted time at the table's highest point, so the whole
    // decision is a pure function of the trace (the manager's static
    // query). On the monotone V(f) curve the lowest admissible
    // frequency is the minimum-energy point.
    const Tick at_highest = cached->estimate(p, table.highest());
    const double limit =
        static_cast<double>(at_highest) *
        (1.0 + static_cast<double>(req.slowdownPermille) / 1000.0);

    net::OptimalVfResp resp;
    resp.chosenMHz = table.highest().toMHz();
    resp.predictedAtChosen = at_highest;
    resp.predictedAtHighest = at_highest;

    // Points ascend, so the first admissible one is the lowest.
    auto admits = [&](std::size_t i, Tick predicted) {
        if (static_cast<double>(predicted) > limit)
            return false;
        resp.chosenMHz = freqs[i].toMHz();
        resp.predictedAtChosen = predicted;
        return true;
    };
    // A table whose points all lie on the grid (a step of 0 or a
    // multiple of 125 MHz, or one past 3000 MHz) scans the stored
    // column; any other walks the table a chunk at a time.
    cached->scanAscending(p, freqs, admits);
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
