/**
 * @file
 * The serving workload: serve-light.
 *
 * Each run records the 24 non-avrora Figure 3 traces (18 KB - 0.5 MB),
 * starts a serve::Server (2 pool workers) on a Unix socket in this
 * process, uploads the traces, and drives it open loop over 2
 * connections with dvfsd_load's request mix. The seed picks the request
 * stream only. Latency is measured from when each request was due to
 * be sent, so a stall delays every request behind it in the
 * measurement too. Replies take microseconds, so time goes to the poll
 * loop, framing, batching and the pool's thread start-up per batch.
 *
 * What a run reports, and why (README.md has the numbers): on a shared
 * virtual machine, live latency and capacity follow the host's
 * scheduling latency and move by a third from minute to minute, and
 * even in-process service times move by a quarter. The bounded
 * throughput is therefore the one that does not wait on wake-ups:
 * requests per second of server CPU time at a fixed offered rate. The
 * live latencies, the service times from an in-process replay of the
 * same stream, and the knee of a rate ladder are per-layer metrics of
 * the traced run.
 */

#include <time.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <iostream>
#include <memory>
#include <mutex>
#include <thread>

#include "exp/sweep/fingerprint.hh"
#include "exp/sweep/pool.hh"
#include "knee.hh"
#include "net/client.hh"
#include "net/proto.hh"
#include "serve/server.hh"
#include "serve/service.hh"
#include "serve/trace_store.hh"
#include "spans.hh"
#include "stats.hh"
#include "trace/reader.hh"
#include "trace/replay.hh"
#include "trace/writer.hh"
#include "wl/suite.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

enum class Kind { Predict, WhatIf, Optimal, Upload, Stats };
constexpr std::size_t kKinds = 5;
constexpr const char *kKindNames[kKinds] = {"predict", "whatif", "optimal",
                                            "upload", "stats"};
/** dvfsd_load's mix, per 100 requests: 55/25/10/5/5. */
constexpr std::array<std::uint32_t, kKinds> kKindShare = {55, 25, 10, 5, 5};
constexpr std::uint32_t kBlock = 100;

/** SplitMix64. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/**
 * p99 latency limit of the knee search. Below it, p99 on a shared
 * 4-thread host is set by scheduling jitter (1.5-5 ms at any rate);
 * above the server's capacity the backlog pushes it past 20 ms within
 * one probe. The limit sits between, so the knee measures capacity
 * rather than the host's jitter.
 */
constexpr double kLimitMs = 20.0;
/** Offered rates the knee search may probe: 1000/s up by 3% steps. */
constexpr Ladder kLadder{1000.0, 1.03, 125};
/** First rung probed (about 10,600/s, near the knee on 4 threads). */
constexpr int kStartRung = 80;
/** A probe offers max(kProbeMinRequests, rate * kProbeSeconds). */
constexpr double kProbeSeconds = 0.5;
constexpr std::size_t kProbeMinRequests = 2000;
/** Latency percentiles are taken per window of this many requests, so
 *  p99 keeps 10 samples beyond it (see windowed() in stats.hh). */
constexpr std::size_t kWindow = 1000;
/**
 * Offered rate of the fixed-rate phase, well below the knee: latency
 * at lower rates is mostly thread wake-ups, and it repeats better here
 * than at 4000/s or 8000/s on a shared 4-thread host.
 */
constexpr double kFixedRate = 2000.0;

/** The traces served, recorded from live runs. */
struct Corpus {
    std::vector<std::string> workload;
    std::vector<std::uint32_t> mhz;
    std::vector<Tick> totalTime;
    std::vector<std::vector<std::uint8_t>> images;
    std::vector<std::uint64_t> digests;
};

Corpus
recordCorpus(const Pins &pins, Outcome &oc)
{
    Scope span("perfbench.record_traces");
    struct Cell {
        wl::WorkloadParams params;
        Frequency freq;
    };
    std::vector<Cell> cells;
    for (const auto &params : wl::dacapoSuite()) {
        if (params.name == "avrora")
            continue;  // 28-35 MB traces; see README.md
        for (Frequency f : fig3Freqs())
            cells.push_back({params, f});
    }
    struct Recorded {
        std::uint64_t fingerprint = 0;
        Tick totalTime = 0;
        std::vector<std::uint8_t> image;
    };
    const std::uint64_t parent = span.id();
    auto recs = exp::sweep::sweepMap<Recorded>(
        cells.size(), sweepWorkers(), [&](std::size_t i) {
            Recorded r;
            exp::RunOptions opts;
            opts.seed = kFig3Seed;
            exp::FixedRunOutput out;
            {
                Scope s("exp.run_fixed", 0, parent);
                out = exp::runFixed(cells[i].params, cells[i].freq, opts);
            }
            r.fingerprint = exp::sweep::fingerprintRun(out);
            r.totalTime = out.totalTime;
            Scope s("trace.encode", 0, parent);
            r.image = trace::encodeTrace(
                out.record, trace::TraceMeta{cells[i].params.name,
                                             kFig3Seed});
            return r;
        });

    Corpus c;
    std::vector<std::string> keys;
    std::vector<std::uint64_t> values;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const std::string &name = cells[i].params.name;
        const std::uint32_t mhz = cells[i].freq.toMHz();
        keys.push_back(cellKey("exact", name, mhz, kFig3Seed));
        values.push_back(recs[i].fingerprint);
        keys.push_back(traceKey(name, mhz, kFig3Seed));
        values.push_back(trace::tracePayloadDigest(recs[i].image));
        c.workload.push_back(name);
        c.mhz.push_back(mhz);
        c.totalTime.push_back(recs[i].totalTime);
        c.digests.push_back(values.back());
        c.images.push_back(std::move(recs[i].image));
    }
    checkCells(keys, values, pins, oc);
    return c;
}

/** One request of the stream, before it is encoded. */
struct Planned {
    Kind kind = Kind::Stats;
    std::uint32_t trace = 0;  ///< index into the corpus
    std::uint64_t aux = 0;    ///< target frequency / slowdown bound
    bool verify = false;      ///< in the bit-identity sample
};

/**
 * Requests [first, first + count) of the run's stream. Every block of
 * 100 consecutive requests holds the mix exactly and spreads each
 * type over the traces evenly; the seed orders each block and picks
 * the parameters. Fixing the composition this way keeps a short probe
 * from drawing, say, twice its share of what-ifs on the largest traces.
 */
std::vector<Planned>
planRequests(std::uint64_t seed, std::uint64_t first, std::size_t count,
             std::size_t traces)
{
    std::array<std::uint32_t, kKinds> lo{};
    for (std::size_t k = 1; k < kKinds; ++k)
        lo[k] = lo[k - 1] + kKindShare[k - 1];

    std::vector<Planned> out(count);
    std::array<std::uint32_t, kBlock> perm{};
    std::uint64_t block = ~std::uint64_t{0};
    for (std::size_t j = 0; j < count; ++j) {
        const std::uint64_t idx = first + j;
        if (idx / kBlock != block) {
            block = idx / kBlock;
            for (std::uint32_t i = 0; i < kBlock; ++i)
                perm[i] = i;
            const std::uint64_t h = mix64(seed ^ mix64(block));
            for (std::uint32_t i = kBlock - 1; i > 0; --i)
                std::swap(perm[i], perm[mix64(h ^ i) % (i + 1)]);
        }
        const std::uint32_t v = perm[idx % kBlock];
        std::size_t k = kKinds - 1;
        while (v < lo[k])
            --k;
        Planned &p = out[j];
        p.kind = static_cast<Kind>(k);
        p.trace = static_cast<std::uint32_t>(
            (block * kKindShare[k] + (v - lo[k]) + mix64(seed ^ k)) %
            traces);
        p.aux = mix64(seed ^ mix64(idx ^ 0x5eedULL));
        p.verify = k <= static_cast<std::size_t>(Kind::Optimal) &&
                   p.aux % 8 == 0;
    }
    return out;
}

net::Body
makeBody(const Planned &p, const Corpus &c)
{
    const std::uint64_t digest = c.digests[p.trace];
    switch (p.kind) {
      case Kind::Predict: {
        net::PredictReq q;
        q.traceDigest = digest;
        q.targetMHz = 1000 + 250 * static_cast<std::uint32_t>(p.aux % 13);
        return q;
      }
      case Kind::WhatIf: {
        net::WhatIfGridReq q;
        q.traceDigest = digest;
        q.targetsMHz = {1000, 2000, 3000, 4000};
        return q;
      }
      case Kind::Optimal: {
        net::OptimalVfReq q;
        q.traceDigest = digest;
        q.slowdownPermille =
            50 + 50 * static_cast<std::uint32_t>((p.aux >> 8) % 4);
        return q;
      }
      case Kind::Upload: {
        net::UploadTraceReq q;
        q.image = c.images[p.trace];
        return q;
      }
      case Kind::Stats:
        break;
    }
    return net::StatsReq{};
}

/** Server, its thread and its clients: one set-up's worth of state. */
struct Daemon {
    std::string socketPath;
    std::unique_ptr<serve::Server> server;
    std::thread thread;
    std::vector<net::RpcClient> conns;  ///< the open-loop connections
    std::unique_ptr<net::RpcClient> control;

    Daemon() = default;
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    ~Daemon()
    {
        if (server)
            server->stop();  // drains, flushes and returns from run()
        if (thread.joinable())
            thread.join();
    }
};

/** What one open-loop phase measured. */
struct Phase {
    double rate = 0.0;
    std::size_t planned = 0, sent = 0;
    bool aborted = false;
    std::uint64_t shed = 0, errors = 0, timeouts = 0;
    std::vector<double> latMs;  ///< replies, in send order
    std::array<std::vector<double>, kKinds> latByKind;
    std::vector<double> lagMs;  ///< generator lateness per request
    std::vector<std::pair<net::Frame, net::Frame>> verify;
    std::string failure;        ///< transport failure, if any
    double processCpuNs = 0.0;  ///< CPU time of the whole process
    double clientCpuNs = 0.0;   ///< CPU time of the load generator

    /** Server CPU (poll loop, pool workers) per request sent, us. */
    double
    serverCpuUsPerRequest() const
    {
        return (processCpuNs - clientCpuNs) / 1e3 /
               static_cast<double>(std::max<std::size_t>(sent, 1));
    }

    /**
     * Median latency of the last window: a backlog that grows through
     * the phase shows here, while one stall of the host does not.
     */
    double
    endP50() const
    {
        const auto n = static_cast<long>(std::min(kWindow, latMs.size()));
        return percentile(std::vector<double>(latMs.end() - n, latMs.end()),
                          0.5);
    }

    std::uint64_t failed() const { return shed + errors + timeouts; }
};

/** CPU time of @p clock (a thread or the process), ns. */
std::int64_t
cpuNs(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/** A reply later than this counts as a timeout (failed). */
constexpr double kTimeoutMs = 5000.0;

/**
 * Offer @p plan at @p rate, round-robin over the connections, and
 * collect every reply. With @p abortOverMs > 0 (a knee probe) sending
 * stops as soon as the phase has clearly failed: an error, a shed, or a
 * quarter of the planned requests over the limit.
 */
Phase
runPhase(Daemon &d, const Corpus &corpus, const std::vector<Planned> &plan,
         std::uint64_t first, double rate, double abortOverMs,
         bool keepVerify)
{
    Phase ph;
    ph.rate = rate;
    ph.planned = plan.size();
    struct Inflight {
        std::uint64_t id;
        std::size_t j;
        std::int64_t dueNs;
        net::Frame req;  ///< kept only for verified requests
    };
    struct ConnState {
        std::mutex mtx;
        std::condition_variable cv;
        std::deque<Inflight> inflight;
        bool done = false;
        std::vector<std::pair<std::size_t, double>> lat, lag;
        std::vector<std::pair<net::Frame, net::Frame>> verify;
        std::array<std::uint64_t, 3> fails{};  // shed, errors, timeouts
        std::string failure;
        std::atomic<std::int64_t> cpuNs{0};  ///< both threads' CPU time
    };
    const std::size_t nc = d.conns.size();
    std::vector<ConnState> st(nc);
    std::atomic<bool> abort{false};
    std::atomic<std::size_t> over{0};
    const std::size_t allowedOver = plan.size() / 4;
    const std::int64_t start = nowNs() + 20'000'000;  // 20 ms lead
    const double gapNs = 1e9 / rate;

    const std::int64_t cpu0 = cpuNs(CLOCK_PROCESS_CPUTIME_ID);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < nc; ++c) {
        // Sender: each request goes out at its due time, however many
        // replies are outstanding (open loop).
        threads.emplace_back([&, c] {
            ConnState &s = st[c];
            net::RpcClient &cl = d.conns[c];
            try {
                std::int64_t freeAt = start;
                for (std::size_t j = c; j < plan.size(); j += nc) {
                    if (abort.load(std::memory_order_relaxed))
                        break;
                    const std::int64_t due =
                        start + static_cast<std::int64_t>(
                                    gapNs * static_cast<double>(j));
                    std::this_thread::sleep_until(
                        Clock::time_point(std::chrono::nanoseconds(due)));
                    const std::int64_t wake = nowNs();
                    const Planned &p = plan[j];
                    net::Frame req = net::Frame::request(
                        cl.nextId(), makeBody(p, corpus));
                    {
                        std::lock_guard<std::mutex> lk(s.mtx);
                        // The generator's own lateness: from when it
                        // could first send (due, or the end of the
                        // previous send on this connection) to waking.
                        s.lag.emplace_back(
                            j, static_cast<double>(
                                   wake - std::max(due, freeAt)) /
                                   1e6);
                        s.inflight.push_back(
                            {req.requestId, j, due,
                             keepVerify && p.verify ? req : net::Frame{}});
                    }
                    s.cv.notify_one();
                    {
                        Scope sp("net.client.send", first + j, 0);
                        cl.send(req);
                    }
                    freeAt = nowNs();
                }
            } catch (const std::exception &e) {
                std::lock_guard<std::mutex> lk(s.mtx);
                s.failure = e.what();
                d.server->stop();  // closes the sockets; receivers end
            }
            {
                std::lock_guard<std::mutex> lk(s.mtx);
                s.done = true;
            }
            s.cv.notify_one();
            s.cpuNs += cpuNs(CLOCK_THREAD_CPUTIME_ID);
        });
        // Receiver: replies on one connection come back in send order.
        threads.emplace_back([&, c] {
            ConnState &s = st[c];
            net::RpcClient &cl = d.conns[c];
            try {
                while (true) {
                    {
                        std::unique_lock<std::mutex> lk(s.mtx);
                        s.cv.wait(lk, [&] {
                            return !s.inflight.empty() || s.done;
                        });
                        if (s.inflight.empty())
                            break;
                    }
                    net::Frame reply = cl.recv();
                    const std::int64_t now = nowNs();
                    Inflight head;
                    {
                        std::lock_guard<std::mutex> lk(s.mtx);
                        head = std::move(s.inflight.front());
                        s.inflight.pop_front();
                    }
                    if (reply.requestId != head.id)
                        throw std::runtime_error("out-of-order reply");
                    const double ms =
                        static_cast<double>(now - head.dueNs) / 1e6;
                    s.lat.emplace_back(head.j, ms);
                    recordSpan("client.request", head.dueNs, now,
                               first + head.j, 0);
                    bool bad = true;
                    if (const auto *err =
                            std::get_if<net::ErrorResp>(&reply.body)) {
                        const bool shed =
                            err->code == static_cast<std::uint32_t>(
                                             net::ErrorCode::Overloaded);
                        s.fails[shed ? 0 : 1] += 1;
                    } else if (ms > kTimeoutMs) {
                        s.fails[2] += 1;
                    } else {
                        bad = false;
                        if (head.req.requestId != 0)
                            s.verify.emplace_back(std::move(head.req),
                                                  std::move(reply));
                    }
                    if (abortOverMs > 0.0 &&
                        (bad || (ms > abortOverMs &&
                                 over.fetch_add(1) + 1 > allowedOver)))
                        abort.store(true);
                }
            } catch (const std::exception &e) {
                std::lock_guard<std::mutex> lk(s.mtx);
                if (s.failure.empty())
                    s.failure = e.what();
            }
            s.cpuNs += cpuNs(CLOCK_THREAD_CPUTIME_ID);
        });
    }
    for (auto &t : threads)
        t.join();
    ph.processCpuNs =
        static_cast<double>(cpuNs(CLOCK_PROCESS_CPUTIME_ID) - cpu0);
    for (auto &s : st)
        ph.clientCpuNs += static_cast<double>(s.cpuNs.load());

    std::vector<std::pair<std::size_t, double>> lat, lag;
    for (auto &s : st) {
        lat.insert(lat.end(), s.lat.begin(), s.lat.end());
        lag.insert(lag.end(), s.lag.begin(), s.lag.end());
        ph.shed += s.fails[0];
        ph.errors += s.fails[1];
        ph.timeouts += s.fails[2];
        for (auto &v : s.verify)
            ph.verify.push_back(std::move(v));
        if (ph.failure.empty())
            ph.failure = s.failure;
    }
    std::sort(lat.begin(), lat.end());
    for (const auto &[j, ms] : lat) {
        ph.latMs.push_back(ms);
        ph.latByKind[static_cast<std::size_t>(plan[j].kind)].push_back(ms);
    }
    for (const auto &[j, ms] : lag)
        ph.lagMs.push_back(ms);
    ph.sent = lat.size();
    ph.aborted = ph.sent < plan.size();
    return ph;
}

/** Record, start, upload and warm up: one complete set-up. */
std::unique_ptr<Daemon>
setUp(const RunArgs &args, const Pins &pins, Corpus &corpus, int attempt,
      Outcome &oc)
{
    Scope span("perfbench.setup");
    corpus = recordCorpus(pins, oc);

    auto d = std::make_unique<Daemon>();
    d->socketPath = args.workdir + "/pb-" + std::to_string(::getpid()) +
                    "-" + std::to_string(attempt) + ".sock";
    serve::ServerConfig cfg;
    cfg.unixPath = d->socketPath;
    cfg.workers = 2;
    cfg.cacheBytes = 256u << 20;  // dvfsd's default; every trace fits
    // Deep enough that a stall of the host near the knee (tens of ms)
    // queues requests instead of shedding them; a shed then means the
    // server could not keep up.
    cfg.maxInFlight = 1024;
    d->server = std::make_unique<serve::Server>(cfg);
    d->thread = std::thread([srv = d->server.get()] { srv->run(); });
    d->control = std::make_unique<net::RpcClient>(
        net::RpcClient::connectUnix(d->socketPath));
    for (int c = 0; c < 2; ++c)
        d->conns.push_back(net::RpcClient::connectUnix(d->socketPath));

    // Upload every trace; the server must name it by its pinned digest.
    for (std::size_t i = 0; i < corpus.images.size(); ++i) {
        net::UploadTraceReq up;
        up.image = corpus.images[i];
        net::Frame reply = d->control->call(std::move(up));
        const auto *resp = std::get_if<net::UploadTraceResp>(&reply.body);
        oc.attempted += 1;
        if (!resp || resp->traceDigest != corpus.digests[i]) {
            oc.failed += 1;
            oc.mismatch("upload of " + corpus.workload[i] + "@" +
                        std::to_string(corpus.mhz[i]) +
                        " MHz: unexpected reply");
        }
    }

    // Warm-up: two blocks of the mix, closed loop, not measured.
    for (const Planned &p :
         planRequests(~args.seed, 0, 2 * kBlock, corpus.digests.size()))
        d->control->call(makeBody(p, corpus));
    return d;
}

/**
 * DEP+BURST mean |error|, percent, of the predictions the server
 * returns: each workload's 1 GHz trace predicts 2, 3 and 4 GHz, scored
 * against the recorded times of those cells.
 */
double
servedPredErrPct(Daemon &d, const Corpus &c, Outcome &oc)
{
    std::vector<double> errs;
    for (std::size_t b = 0; b < c.digests.size(); ++b) {
        if (c.mhz[b] != 1000)
            continue;
        net::WhatIfGridReq q;
        q.traceDigest = c.digests[b];
        q.targetsMHz = {2000, 3000, 4000};
        net::Frame reply = d.control->call(q);
        oc.attempted += 1;
        const auto *resp = std::get_if<net::WhatIfGridResp>(&reply.body);
        std::size_t p = 0;
        while (resp && p < resp->predictors.size() &&
               resp->predictors[p] != "DEP+BURST")
            ++p;
        if (!resp || p == resp->predictors.size()) {
            oc.failed += 1;
            oc.mismatch("what-if on " + c.workload[b] +
                        "@1000 MHz: no DEP+BURST prediction");
            continue;
        }
        for (std::size_t t = 0; t < q.targetsMHz.size(); ++t) {
            for (std::size_t i = 0; i < c.digests.size(); ++i) {
                if (c.workload[i] != c.workload[b] ||
                    c.mhz[i] != q.targetsMHz[t])
                    continue;
                const Tick est =
                    resp->predicted[t * resp->predictors.size() + p];
                errs.push_back(std::fabs(pred::Predictor::relativeError(
                                   est, c.totalTime[i])) *
                               100.0);
            }
        }
    }
    return mean(errs);
}

/** Served replies in the sample must equal an in-process Service's. */
std::size_t
verifyReplies(const Phase &ph, serve::Service &local, Outcome &oc)
{
    std::size_t bad = 0;
    for (const auto &[req, served] : ph.verify) {
        if (net::encodeFrame(local.handle(req)) == net::encodeFrame(served))
            continue;
        ++bad;
        oc.mismatch("request id " + std::to_string(req.requestId) +
                    " (message type " + std::to_string(req.rawType) +
                    "): served reply differs from in-process Service");
    }
    return bad;
}

net::StatsResp
stats(Daemon &d)
{
    net::Frame reply = d.control->call(net::StatsReq{});
    const auto *st = std::get_if<net::StatsResp>(&reply.body);
    if (!st)
        throw std::runtime_error("stats request failed");
    return *st;
}

void
printPhase(const char *label, const Phase &ph, bool pass)
{
    std::cout << label << " " << ph.rate << "/s, " << ph.sent << "/"
              << ph.planned << " sent: p50 " << percentile(ph.latMs, 0.5)
              << " ms, p99 " << percentile(ph.latMs, 0.99)
              << " ms (windowed " << windowed(ph.latMs, kWindow, 0.99) << " ms), end p50 "
              << ph.endP50() << " ms, lag p99 "
              << percentile(ph.lagMs, 0.99) << " ms, shed " << ph.shed
              << ", errors " << ph.errors << ", timeouts " << ph.timeouts
              << ", server cpu " << ph.serverCpuUsPerRequest() << " us/req"
              << (pass ? "  pass" : "  fail") << "\n";
}

/**
 * Replay the same request stream in process, one request at a time:
 * encode, decode, Service::handle, encode the reply, timing each layer.
 * Then time the per-trace calls (decode, store insert, replay
 * evaluation, one prediction). Adds the per-layer metrics and returns
 * each request's service time (decode, handle, encode the reply), ms.
 */
std::vector<double>
replayInProcess(const Corpus &c, std::uint64_t seed, std::uint64_t first,
                double seconds, Outcome &oc)
{
    serve::TraceStore store(256u << 20);
    serve::Service service(store);
    for (const auto &img : c.images)
        store.put(img);

    auto timed = [](const char *span, std::uint64_t req, auto &&fn) {
        const std::int64_t t0 = nowNs();
        {
            Scope s(span, req);
            fn();
        }
        return static_cast<double>(nowNs() - t0);
    };

    std::vector<double> serviceMs, encUs, decUs;
    std::array<std::vector<double>, kKinds> handleUs;
    std::array<const char *, kKinds> handleSpan{};
    for (std::size_t k = 0; k < kKinds; ++k)
        handleSpan[k] = intern(std::string("serve.handle.") + kKindNames[k]);
    const std::int64_t deadline =
        nowNs() + static_cast<std::int64_t>(seconds * 1e9);
    std::uint64_t j = 0;
    while (nowNs() < deadline) {
        for (const Planned &p :
             planRequests(seed, first + j, kBlock, c.digests.size())) {
            const std::uint64_t rid = first + j++;
            const net::Frame req =
                net::Frame::request(rid + 1, makeBody(p, c));
            std::vector<std::uint8_t> wire;
            net::Frame decoded, reply;
            const double enc = timed("net.encode_frame", rid, [&] {
                wire = net::encodeFrame(req);
            });
            const double dec = timed("net.decode_frame", rid, [&] {
                decoded = net::decodeFrame(wire);
            });
            const auto k = static_cast<std::size_t>(p.kind);
            const double handle = timed(handleSpan[k], rid, [&] {
                reply = service.handle(decoded);
            });
            const double encReply = timed("net.encode_frame", rid, [&] {
                wire = net::encodeFrame(reply);
            });
            serviceMs.push_back((dec + handle + encReply) / 1e6);
            encUs.insert(encUs.end(), {enc / 1e3, encReply / 1e3});
            decUs.push_back(dec / 1e3);
            handleUs[k].push_back(handle / 1e3);
        }
    }
    oc.add("net.encode_frame_us", mean(encUs), "us");
    oc.add("net.decode_frame_us", mean(decUs), "us");
    for (std::size_t k = 0; k < kKinds; ++k) {
        oc.add(std::string("serve.handle.") + kKindNames[k] + "_us",
               mean(handleUs[k]), "us");
    }

    serve::TraceStore fresh(256u << 20);
    trace::ReplayEngine engine;
    std::vector<trace::ReplayTarget> targets;
    for (Frequency f : fig3Freqs())
        targets.push_back({f, 0});
    double decodeNs = 0, bytes = 0;
    std::vector<double> putMs, evalUs, predictUs;
    for (const auto &img : c.images) {
        trace::LoadedTrace loaded;
        decodeNs += timed("trace.decode", 0,
                          [&] { loaded = trace::decodeTrace(img); });
        bytes += static_cast<double>(img.size());
        putMs.push_back(
            timed("serve.trace_store.put", 0, [&] { fresh.put(img); }) /
            1e6);
        evalUs.push_back(timed("trace.replay_evaluate", 0, [&] {
                             engine.evaluate(loaded, targets);
                         }) /
                         1e3);
        predictUs.push_back(timed("pred.predict", 0, [&] {
                                depBurst().predict(loaded,
                                                   Frequency::ghz(2.0));
                            }) /
                            1e3);
    }
    oc.add("trace.decode_ms_per_mb", decodeNs / 1e6 / (bytes / 1e6),
           "ms/MB");
    oc.add("serve.trace_store.put_ms", mean(putMs), "ms");
    oc.add("trace.replay_evaluate_us", mean(evalUs), "us");
    oc.add("pred.predict_us", mean(predictUs), "us");
    return serviceMs;
}

} // namespace

Outcome
runServe(const RunArgs &args, const Pins &pins)
{
    Outcome oc;
    Corpus corpus;
    std::unique_ptr<Daemon> d;
    int attempt = 0;
    const double setupS = medianSetupSeconds(5, [&] {
        d.reset();  // the previous set-up's server drains and exits
        d = setUp(args, pins, corpus, attempt++, oc);
    });

    // The in-process mirror the sampled replies are checked against.
    serve::TraceStore localStore(256u << 20);
    serve::Service local(localStore);
    for (const auto &img : corpus.images)
        localStore.put(img);

    std::uint64_t next = 0;  // index of the next request in the stream
    auto offer = [&](double rate, std::size_t count, double abortOverMs,
                     bool verify) {
        const auto plan =
            planRequests(args.seed, next, count, corpus.digests.size());
        Phase ph =
            runPhase(*d, corpus, plan, next, rate, abortOverMs, verify);
        next += count;
        if (!ph.failure.empty())
            throw std::runtime_error("connection failed: " + ph.failure);
        return ph;
    };

    // The fixed-rate phase: live latency, server CPU, failures and the
    // bit-identity checks.
    auto fixedPhase = [&](double seconds) {
        Phase ph = offer(kFixedRate,
                         static_cast<std::size_t>(kFixedRate * seconds),
                         0.0, true);
        oc.attempted += ph.sent;
        oc.failed += ph.failed() + verifyReplies(ph, local, oc);
        // An open-loop run is valid only while the generator kept its
        // schedule; otherwise the offered load was lower than stated.
        const double lag = percentile(ph.lagMs, 0.99);
        if (lag > kLimitMs) {
            oc.mismatch("generator fell behind: p99 lag " +
                        std::to_string(lag) + " ms at " +
                        std::to_string(kFixedRate) + "/s");
        }
        printPhase("fixed", ph, ph.failed() == 0);
        std::cout << "verified " << ph.verify.size()
                  << " sampled replies bit-identical to Service::handle\n";
        return ph;
    };

    const double err = servedPredErrPct(*d, corpus, oc);

    if (!args.trace) {
        const Phase ph = fixedPhase(args.seconds);
        oc.add("throughput_per_s",
               1e6 / ph.serverCpuUsPerRequest(), "1/s");
        oc.add("err_pct", err, "%");
        oc.add("peak_rss_mb", peakRssMb(), "MB");
        oc.add("setup_s", setupS, "s");
        return oc;
    }

    // Traced run: the live fixed-rate phase untraced, then traced (the
    // difference is the recorder's overhead); the knee search; then the
    // in-process replay that splits a request into its layers.
    const Phase plain = fixedPhase(args.seconds * 0.2);
    const net::StatsResp before = stats(*d);
    setTracing(true);
    const Phase traced = fixedPhase(args.seconds * 0.2);
    setTracing(false);
    const net::StatsResp after = stats(*d);

    const std::int64_t ladderEnd =
        nowNs() + static_cast<std::int64_t>(args.seconds * 0.35 * 1e9);
    auto probe = [&](int rung) {
        const double rate = kLadder.rate(rung);
        const auto n = std::max<std::size_t>(
            kProbeMinRequests, static_cast<std::size_t>(rate * kProbeSeconds));
        Phase ph = offer(rate, n, kLimitMs, false);
        const bool pass = !ph.aborted && ph.failed() == 0 &&
                          windowed(ph.latMs, kWindow, 0.99) <= kLimitMs &&
                          ph.endP50() <= kLimitMs &&
                          percentile(ph.lagMs, 0.99) <= kLimitMs;
        printPhase("probe", ph, pass);
        return pass;
    };
    const KneeResult knee = findKnee(
        kLadder, kStartRung, [&] { return nowNs() < ladderEnd; }, probe);
    const double maxRps = knee.rung < 0 ? 0.0 : kLadder.rate(knee.rung);
    std::cout << "knee: rung " << knee.rung << " = " << maxRps << "/s after "
              << knee.probes << " probes (p99 limit " << kLimitMs << " ms)\n";

    setTracing(true);
    const auto service =
        replayInProcess(corpus, args.seed, next, args.seconds * 0.25, oc);
    setTracing(false);

    oc.add("serve.max_rps", maxRps, "1/s");
    oc.add("serve.live.p50_ms", windowed(traced.latMs, kWindow, 0.5), "ms");
    oc.add("serve.live.p99_ms", windowed(traced.latMs, kWindow, 0.99), "ms");
    oc.add("serve.server_cpu_us", traced.serverCpuUsPerRequest(), "us");
    oc.add("serve.service.p50_ms", windowed(service, kWindow, 0.5), "ms");
    oc.add("serve.service.p99_ms", windowed(service, kWindow, 0.99), "ms");
    for (std::size_t k = 0; k < kKinds; ++k) {
        const std::string base = std::string("serve.") + kKindNames[k];
        oc.add(base + ".p50_ms", percentile(traced.latByKind[k], 0.5), "ms");
        oc.add(base + ".p99_ms", percentile(traced.latByKind[k], 0.99),
               "ms");
    }
    const auto delta = [](std::uint64_t a, std::uint64_t b) {
        return static_cast<double>(b - a);
    };
    const double batches = delta(before.batches, after.batches);
    const double hits = delta(before.cacheHits, after.cacheHits);
    const double lookups =
        hits + delta(before.cacheMisses, after.cacheMisses);
    oc.add("serve.batches", batches, "count");
    oc.add("serve.batch_mean",
           batches > 0 ? delta(before.requests, after.requests) / batches
                       : 0.0,
           "requests");
    oc.add("serve.max_batch", static_cast<double>(after.maxBatch),
           "requests");
    oc.add("serve.shed", static_cast<double>(after.shedOverload), "count");
    oc.add("serve.cache_hit_rate", lookups > 0 ? hits / lookups : 0.0,
           "ratio");
    oc.add("serve.cache_evictions",
           static_cast<double>(after.cacheEvictions), "count");
    oc.add("gen.lag_ms", percentile(traced.lagMs, 0.99), "ms");
    oc.add("exp.pred_err_pct", err, "%");
    const double overhead = (percentile(traced.latMs, 0.5) /
                                 percentile(plain.latMs, 0.5) -
                             1.0) *
                            100.0;
    oc.add("perfbench.trace_overhead_pct", overhead, "%");
    std::cout << "tracing overhead: " << overhead << "% of p50 latency at "
              << kFixedRate << "/s\n";
    return oc;
}

} // namespace perfbench
