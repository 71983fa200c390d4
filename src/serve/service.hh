/**
 * @file
 * The dvfsd request handler: one decoded Frame in, one response out.
 *
 * Pure application logic over the trace store and the replay engine —
 * no sockets, no threads of its own — so the exact code path the
 * daemon serves is also the code path unit tests and
 * `dvfsd_load --verify-live` exercise directly. handle() is safe to
 * call concurrently: the store is internally locked, its entries are
 * immutable once inserted, queries read an entry's answer grid or
 * walk its prediction table with stateless predictors (their scratch
 * is per thread), and counters are atomic.
 *
 * Every reply to request id R carries id R; failures become
 * Error{code, offset, message} replies rather than dropped
 * connections (ErrorCode semantics in net/proto.hh).
 */

#ifndef DVFS_SERVE_SERVICE_HH
#define DVFS_SERVE_SERVICE_HH

#include <atomic>
#include <memory>
#include <string>

#include "net/proto.hh"
#include "serve/trace_store.hh"
#include "trace/replay.hh"

namespace dvfs::serve {

/** Counters the socket layer owns but Stats replies report. */
struct ServerCounters {
    std::atomic<std::uint64_t> shedOverload{0};
    std::atomic<std::uint64_t> batches{0};
    std::atomic<std::uint64_t> maxBatch{0};
};

class Service
{
  public:
    /**
     * @param store     shared trace cache (caller owns).
     * @param counters  socket-layer counters folded into Stats
     *                  replies; may be null (standalone/test use).
     */
    explicit Service(TraceStore &store,
                     const ServerCounters *counters = nullptr);

    /**
     * Serve one request frame.
     *
     * Always returns a response frame carrying the request's id; a
     * request that cannot be served (unknown trace, unknown message
     * type, semantic error) returns an Error response. Never throws
     * for malformed requests; only genuine programming errors
     * propagate.
     */
    net::Frame handle(const net::Frame &request);

    /** Requests handled so far. */
    std::uint64_t requestsServed() const { return _requests.load(); }

  private:
    net::Frame serve(const net::Frame &request);

    net::Body handleUpload(const net::UploadTraceReq &req);
    net::Body handlePredict(const net::PredictReq &req);
    net::Body handleWhatIf(const net::WhatIfGridReq &req);
    net::Body handleOptimalVf(const net::OptimalVfReq &req);
    net::Body handleStats();

    TraceStore &_store;
    const ServerCounters *_counters;
    /** The Figure 3 set the store's answer grids hold. */
    const trace::ReplayEngine &_engine = CachedTrace::engine();

    std::atomic<std::uint64_t> _requests{0};
    std::atomic<std::uint64_t> _responses{0};
    std::atomic<std::uint64_t> _errors{0};
};

} // namespace dvfs::serve

#endif // DVFS_SERVE_SERVICE_HH
