/**
 * @file
 * dvfsd_load: open-loop load generator and live-verification harness
 * for dvfsd.
 *
 * Uploads every .dvfstrace in --trace-dir, then fires a mixed query
 * stream (Predict / WhatIfGrid / OptimalVf / re-Upload / Stats, fixed
 * deterministic proportions) at a fixed arrival rate across several
 * connections. Arrivals are OPEN-LOOP: request i is sent at
 * start + i/rate no matter how many replies are outstanding, so
 * server-side queueing shows up as latency instead of silently
 * throttling the offered load (no coordinated omission). Latency is
 * measured from the scheduled arrival to the reply.
 *
 * Each run prints latency percentiles, throughput, the reply
 * accounting, the realized query mix and the server's cache and
 * batching counters. The serving knee on one host, compared parent
 * to change, is perfbench's serve.max_rps (perfbench/README.md).
 *
 * --verify-live replays every prediction query against an in-process
 * Service over the same traces and fails (exit 1) unless the served
 * reply is BIT-IDENTICAL (whole encoded frame) to the direct
 * ReplayEngine answer — the daemon adds transport, not error.
 *
 * --fail-p99-ms gates CI: exit 1 if the overall p99 exceeds the bound.
 *
 * Usage: dvfsd_load --trace-dir=DIR (--port=N | --unix=PATH)
 *                   [--rate=200] [--duration-s=5] [--connections=4]
 *                   [--seed=42] [--verify-live] [--fail-p99-ms=X]
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "exp/table.hh"
#include "net/client.hh"
#include "net/proto.hh"
#include "serve/service.hh"
#include "serve/trace_store.hh"

using namespace dvfs;
using Clock = std::chrono::steady_clock;

namespace {

/** SplitMix64: deterministic per-request randomness from (seed, i). */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

enum class QueryKind { Predict, WhatIf, Optimal, Upload, Stats };

const char *
kindName(QueryKind k)
{
    switch (k) {
      case QueryKind::Predict: return "predict";
      case QueryKind::WhatIf:  return "whatif";
      case QueryKind::Optimal: return "optimal";
      case QueryKind::Upload:  return "upload";
      case QueryKind::Stats:   return "stats";
    }
    return "?";
}

/** The fixed mix: mostly predictions, a few uploads and stats. */
QueryKind
kindFor(std::uint64_t r)
{
    const std::uint64_t pct = r % 100;
    if (pct < 55)
        return QueryKind::Predict;
    if (pct < 80)
        return QueryKind::WhatIf;
    if (pct < 90)
        return QueryKind::Optimal;
    if (pct < 95)
        return QueryKind::Upload;
    return QueryKind::Stats;
}

net::Body
makeBody(QueryKind kind, std::uint64_t r,
         const std::vector<std::uint64_t> &digests,
         const std::vector<std::vector<std::uint8_t>> &images)
{
    const std::uint64_t d = digests[mix64(r ^ 1) % digests.size()];
    switch (kind) {
      case QueryKind::Predict: {
        net::PredictReq q;
        q.traceDigest = d;
        q.targetMHz = 1000 + 250 * (mix64(r ^ 2) % 13);  // 1.0–4.0 GHz
        return q;
      }
      case QueryKind::WhatIf: {
        net::WhatIfGridReq q;
        q.traceDigest = d;
        q.targetsMHz = {1000, 2000, 3000, 4000};
        return q;
      }
      case QueryKind::Optimal: {
        net::OptimalVfReq q;
        q.traceDigest = d;
        q.slowdownPermille = 50 + 50 * (mix64(r ^ 3) % 4);
        q.stepMHz = 0;       // table default
        q.predictor = "";    // server default (DEP+BURST)
        return q;
      }
      case QueryKind::Upload: {
        net::UploadTraceReq q;
        q.image = images[mix64(r ^ 1) % images.size()];
        return q;
      }
      case QueryKind::Stats:
        return net::StatsReq{};
    }
    return net::StatsReq{};
}

struct Sample {
    QueryKind kind;
    double latencyMs = 0.0;
    bool isError = false;
    bool shed = false;
};

/** One connection's share of the open-loop schedule. */
struct ConnWork {
    std::unique_ptr<net::RpcClient> client;
    /** Global request indices assigned to this connection. */
    std::vector<std::size_t> indices;
    /** (request id, scheduled arrival, request frame) FIFO. */
    std::deque<std::tuple<std::uint64_t, Clock::time_point, net::Frame>>
        inflight;
    std::mutex mtx;
    std::vector<Sample> samples;
    /** (request, reply) pairs kept for --verify-live. */
    std::vector<std::pair<net::Frame, net::Frame>> verifyPairs;
    std::string failure;  ///< transport/protocol failure, if any
};

double
percentile(std::vector<double> sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const auto n = static_cast<double>(sorted.size());
    auto idx = static_cast<std::size_t>(q * n);
    if (idx >= sorted.size())
        idx = sorted.size() - 1;
    return sorted[idx];
}

std::vector<std::uint8_t>
readFileBytes(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    if (!f)
        fatal("dvfsd_load: cannot open '%s'", path.c_str());
    return {std::istreambuf_iterator<char>(f),
            std::istreambuf_iterator<char>()};
}

} // namespace

int
main(int argc, char **argv)
{
    bench::FlagSet args("dvfsd_load",
                        "open-loop load generator and live verifier "
                        "for dvfsd");
    args.addTraceDir(".dvfstrace files to upload and query (required)")
        .add("port", "N", "connect to dvfsd at 127.0.0.1:N")
        .add("unix", "PATH", "connect to dvfsd's Unix-domain socket")
        .add("rate", "R", "offered load in requests/sec (default 200)")
        .add("duration-s", "S", "run length in seconds (default 5)")
        .add("connections", "C", "client connections (default 4)")
        .add("seed", "N", "mix/schedule seed (default 42)")
        .addBool("verify-live",
                 "fail unless every served prediction is bit-identical "
                 "to a direct in-process ReplayEngine call")
        .add("fail-p99-ms", "X",
             "exit 1 if overall p99 latency exceeds X ms (0 = no gate)");
    args.parse(argc, argv);

    const std::string trace_dir = args.get("trace-dir");
    if (trace_dir.empty())
        fatal("dvfsd_load: --trace-dir is required");
    const long port = args.getInt("port", 0, 0, 65535);
    const std::string unix_path = args.get("unix");
    if (port == 0 && unix_path.empty())
        fatal("dvfsd_load: one of --port or --unix is required");
    const double rate = args.getDouble("rate", 200.0);
    if (rate <= 0.0)
        fatal("--rate: must be positive");
    const double duration = args.getDouble("duration-s", 5.0);
    const auto conns =
        static_cast<std::size_t>(args.getInt("connections", 4, 1));
    const auto seed =
        static_cast<std::uint64_t>(args.getInt("seed", 42));
    const bool verify = args.has("verify-live");
    const double fail_p99 = args.getDouble("fail-p99-ms", 0.0);

    auto connect = [&]() {
        return unix_path.empty()
                   ? net::RpcClient::connectTcp(
                         static_cast<std::uint16_t>(port))
                   : net::RpcClient::connectUnix(unix_path);
    };

    // ---- Setup: read and upload every trace in the directory. ----
    std::vector<std::string> paths;
    for (const auto &entry :
         std::filesystem::directory_iterator(trace_dir)) {
        if (entry.path().extension() == ".dvfstrace")
            paths.push_back(entry.path().string());
    }
    std::sort(paths.begin(), paths.end());
    if (paths.empty())
        fatal("dvfsd_load: no .dvfstrace files in '%s'",
              trace_dir.c_str());

    std::vector<std::vector<std::uint8_t>> images;
    for (const auto &p : paths)
        images.push_back(readFileBytes(p));

    net::RpcClient setup = connect();
    std::vector<std::uint64_t> digests;
    for (std::size_t i = 0; i < images.size(); ++i) {
        net::UploadTraceReq up;
        up.image = images[i];
        net::Frame reply = setup.call(std::move(up));
        const auto *resp =
            std::get_if<net::UploadTraceResp>(&reply.body);
        if (!resp) {
            const auto *err = std::get_if<net::ErrorResp>(&reply.body);
            fatal("dvfsd_load: upload of '%s' failed: %s",
                  paths[i].c_str(),
                  err ? err->message.c_str() : "unexpected reply type");
        }
        digests.push_back(resp->traceDigest);
    }
    std::cout << "dvfsd_load: uploaded " << digests.size()
              << " traces from " << trace_dir << "\n";

    // The local mirror --verify-live compares against: the same
    // Service/ReplayEngine code the daemon runs, over the same images.
    serve::TraceStore localStore(1u << 30);
    serve::Service localService(localStore);
    if (verify) {
        for (const auto &img : images)
            localStore.put(img);
    }

    // ---- Open-loop schedule. ----
    const auto total =
        static_cast<std::size_t>(rate * duration);
    if (total == 0)
        fatal("dvfsd_load: rate x duration yields zero requests");

    std::vector<std::unique_ptr<ConnWork>> work;
    for (std::size_t c = 0; c < conns; ++c) {
        auto w = std::make_unique<ConnWork>();
        w->client = std::make_unique<net::RpcClient>(connect());
        work.push_back(std::move(w));
    }
    for (std::size_t i = 0; i < total; ++i)
        work[i % conns]->indices.push_back(i);

    const auto start = Clock::now() + std::chrono::milliseconds(50);
    const double gap_ns = 1e9 / rate;

    std::vector<std::thread> threads;
    for (auto &wptr : work) {
        ConnWork *w = wptr.get();
        // Sender: fire each assigned request at its scheduled time,
        // regardless of outstanding replies (open loop).
        threads.emplace_back([&, w] {
            try {
                for (std::size_t i : w->indices) {
                    const auto sched =
                        start + std::chrono::nanoseconds(
                                    static_cast<std::int64_t>(
                                        gap_ns *
                                        static_cast<double>(i)));
                    std::this_thread::sleep_until(sched);
                    const std::uint64_t r = mix64(seed ^ i);
                    net::Frame req = net::Frame::request(
                        w->client->nextId(),
                        makeBody(kindFor(r), r, digests, images));
                    {
                        std::lock_guard<std::mutex> lk(w->mtx);
                        w->inflight.emplace_back(req.requestId, sched,
                                                 verify ? req
                                                        : net::Frame{});
                    }
                    w->client->send(req);
                }
            } catch (const std::exception &e) {
                std::lock_guard<std::mutex> lk(w->mtx);
                w->failure = e.what();
            }
        });
        // Receiver: replies on one connection arrive in send order
        // (the server queues per-connection replies FIFO, and a shed
        // request is always the oldest queued).
        threads.emplace_back([&, w] {
            try {
                for (std::size_t k = 0; k < w->indices.size(); ++k) {
                    net::Frame reply = w->client->recv();
                    const auto now = Clock::now();
                    std::tuple<std::uint64_t, Clock::time_point,
                               net::Frame>
                        head;
                    {
                        std::lock_guard<std::mutex> lk(w->mtx);
                        if (w->inflight.empty())
                            throw std::runtime_error(
                                "reply with no request outstanding");
                        head = std::move(w->inflight.front());
                        w->inflight.pop_front();
                    }
                    if (reply.requestId != std::get<0>(head))
                        throw std::runtime_error(
                            "out-of-order reply: got id " +
                            std::to_string(reply.requestId) +
                            ", expected " +
                            std::to_string(std::get<0>(head)));

                    const std::size_t i = w->indices[k];
                    const std::uint64_t r = mix64(seed ^ i);
                    Sample s;
                    s.kind = kindFor(r);
                    s.latencyMs =
                        std::chrono::duration<double, std::milli>(
                            now - std::get<1>(head))
                            .count();
                    if (const auto *err =
                            std::get_if<net::ErrorResp>(&reply.body)) {
                        s.isError = true;
                        s.shed = err->code ==
                                 static_cast<std::uint32_t>(
                                     net::ErrorCode::Overloaded);
                    }
                    w->samples.push_back(s);
                    if (verify && !s.isError &&
                        s.kind != QueryKind::Stats &&
                        s.kind != QueryKind::Upload) {
                        w->verifyPairs.emplace_back(
                            std::move(std::get<2>(head)),
                            std::move(reply));
                    }
                }
            } catch (const std::exception &e) {
                std::lock_guard<std::mutex> lk(w->mtx);
                if (w->failure.empty())
                    w->failure = e.what();
            }
        });
    }
    for (auto &t : threads)
        t.join();
    const auto wall =
        std::chrono::duration<double>(Clock::now() - start).count();

    for (const auto &w : work) {
        if (!w->failure.empty())
            fatal("dvfsd_load: connection failed: %s",
                  w->failure.c_str());
    }

    // ---- Aggregate. ----
    std::vector<double> lat;
    std::size_t errors = 0, shed = 0;
    std::vector<std::size_t> byKind(5, 0);
    for (const auto &w : work) {
        for (const Sample &s : w->samples) {
            lat.push_back(s.latencyMs);
            byKind[static_cast<std::size_t>(s.kind)]++;
            if (s.shed)
                shed++;
            else if (s.isError)
                errors++;
        }
    }
    std::sort(lat.begin(), lat.end());
    const double p50 = percentile(lat, 0.50);
    const double p99 = percentile(lat, 0.99);
    const double p999 = percentile(lat, 0.999);
    const double throughput = static_cast<double>(lat.size()) / wall;

    // Cache effectiveness, from the server's own counters.
    double hit_rate = 0.0;
    std::uint64_t hits = 0, misses = 0, batches = 0, max_batch = 0;
    {
        net::Frame reply = setup.call(net::StatsReq{});
        if (const auto *st = std::get_if<net::StatsResp>(&reply.body)) {
            hits = st->cacheHits;
            misses = st->cacheMisses;
            batches = st->batches;
            max_batch = st->maxBatch;
            if (hits + misses > 0) {
                hit_rate = static_cast<double>(hits) /
                           static_cast<double>(hits + misses);
            }
        }
    }

    // ---- Live verification. ----
    std::size_t verified = 0, mismatches = 0;
    if (verify) {
        for (const auto &w : work) {
            for (const auto &[req, served] : w->verifyPairs) {
                net::Frame local = localService.handle(req);
                if (net::encodeFrame(local) !=
                    net::encodeFrame(served)) {
                    mismatches++;
                    std::cerr << "dvfsd_load: VERIFY MISMATCH on "
                                 "request id "
                              << req.requestId << "\n";
                } else {
                    verified++;
                }
            }
        }
    }

    // ---- Report. ----
    exp::Table table({"metric", "value"});
    table.addRow({"requests", std::to_string(lat.size())});
    table.addRow({"throughput req/s", exp::Table::fmt(throughput, 1)});
    table.addRow({"p50 ms", exp::Table::fmt(p50, 3)});
    table.addRow({"p99 ms", exp::Table::fmt(p99, 3)});
    table.addRow({"p99.9 ms", exp::Table::fmt(p999, 3)});
    table.addRow({"errors", std::to_string(errors)});
    table.addRow({"shed (overload)", std::to_string(shed)});
    for (std::size_t k = 0; k < byKind.size(); ++k) {
        table.addRow({std::string(kindName(static_cast<QueryKind>(k))) +
                          " requests",
                      std::to_string(byKind[k])});
    }
    table.addRow({"cache hits", std::to_string(hits)});
    table.addRow({"cache misses", std::to_string(misses)});
    table.addRow({"cache hit rate", exp::Table::fmt(hit_rate, 4)});
    table.addRow({"batches", std::to_string(batches)});
    table.addRow({"max batch", std::to_string(max_batch)});
    if (verify) {
        table.addRow({"verified bit-identical",
                      std::to_string(verified)});
        table.addRow({"verify mismatches", std::to_string(mismatches)});
    }
    table.print(std::cout);

    if (verify && mismatches > 0) {
        std::cerr << "dvfsd_load: VERIFY FAILED: " << mismatches
                  << " served replies differ from direct ReplayEngine "
                     "calls\n";
        return 1;
    }
    if (fail_p99 > 0.0 && p99 > fail_p99) {
        std::cerr << "dvfsd_load: p99 " << p99 << " ms exceeds --fail-"
                  << "p99-ms=" << fail_p99 << "\n";
        return 1;
    }
    return 0;
}
