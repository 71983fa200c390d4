/**
 * @file
 * The dvfsd serving stack: trace cache, request handler, socket loop.
 *
 * Three layers, tested bottom-up with the same recorded trace image:
 *
 *  - TraceStore: digest-keyed idempotent put, LRU promotion/eviction,
 *    honest counters.
 *  - Service: every request type answered, every failure a structured
 *    Error reply, and — the property dvfsd_load --verify-live enforces
 *    in production — served predictions bit-identical to a direct
 *    ReplayEngine evaluation of the same trace.
 *  - Server: real sockets end-to-end (TCP and Unix), including the
 *    failure policy: a payload-level decode error keeps the
 *    connection, a header-level one closes it after the Error reply,
 *    and a construction that fails leaves no descriptor open.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "exp/experiment.hh"
#include "net/client.hh"
#include "net/socket.hh"
#include "net/wire.hh"
#include "serve/server.hh"
#include "serve/service.hh"
#include "serve/trace_store.hh"
#include "power/vf_table.hh"
#include "reference_predictors.hh"
#include "trace/replay.hh"
#include "trace/writer.hh"
#include "wl/suite.hh"

using namespace dvfs;
using net::Frame;
using serve::Service;
using serve::TraceStore;

namespace {

/** Record a tiny synthetic run and encode it as a .dvfstrace image. */
std::vector<std::uint8_t>
makeImage(std::uint64_t seed)
{
    auto params = wl::syntheticSmall(2, 30);
    exp::RunOptions opts;
    opts.seed = seed;
    auto out = exp::runFixed(params, Frequency::ghz(1.0), opts);
    trace::TraceMeta meta;
    meta.workload = params.name;
    meta.seed = seed;
    return trace::encodeTrace(out.record, meta);
}

const net::ErrorResp &
requireError(const Frame &reply, net::ErrorCode code)
{
    const auto *err = std::get_if<net::ErrorResp>(&reply.body);
    EXPECT_NE(err, nullptr) << "expected an Error reply";
    if (err) {
        EXPECT_EQ(err->code, static_cast<std::uint32_t>(code))
            << err->message;
    }
    static net::ErrorResp none;
    return err ? *err : none;
}

void
storeU64(std::vector<std::uint8_t> &image, std::size_t off,
         std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        image[off + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(v >> (8 * i));
}

/** Reseal a frame's header digest after editing its payload. */
void
resealDigest(std::vector<std::uint8_t> &image)
{
    storeU64(image, 16,
             net::fnv1aBytes(image.data() + net::kFrameHeaderBytes,
                             image.size() - net::kFrameHeaderBytes));
}

/** Blocking framed receive over a raw fd (the RpcClient recv dance). */
bool
recvFrame(int fd, Frame &out)
{
    std::uint8_t header[net::kFrameHeaderBytes];
    if (!net::recvAll(fd, header, sizeof(header)))
        return false;
    const std::uint32_t length =
        net::peekPayloadLength(header, sizeof(header));
    std::vector<std::uint8_t> image(header, header + sizeof(header));
    image.resize(net::kFrameHeaderBytes + length);
    if (!net::recvAll(fd, image.data() + net::kFrameHeaderBytes, length))
        return false;
    out = net::decodeFrame(image);
    return true;
}

} // namespace

TEST(TraceStore, PutIsIdempotentByDigest)
{
    TraceStore store(64u << 20);
    const auto image = makeImage(7);

    auto first = store.put(image);
    EXPECT_FALSE(first.alreadyCached);
    EXPECT_EQ(first.digest, trace::tracePayloadDigest(image));
    ASSERT_NE(first.entry, nullptr);
    // The entry keeps the table and grid built from the record, and
    // the record's thread count, but not the record itself.
    const trace::LoadedTrace decoded = trace::decodeTrace(image);
    EXPECT_EQ(first.entry->table.totalTime(), decoded.totalTime());
    EXPECT_EQ(first.entry->table.epochs().size(), decoded.epochs().size());
    EXPECT_EQ(first.entry->threads, decoded.threads().size());

    auto again = store.put(image);
    EXPECT_TRUE(again.alreadyCached);
    EXPECT_EQ(again.digest, first.digest);
    EXPECT_EQ(again.entry.get(), first.entry.get());

    auto stats = store.stats();
    EXPECT_EQ(stats.insertions, 1u);
    EXPECT_EQ(stats.reuses, 1u);
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_GT(stats.bytes, 0u);
}

/**
 * The header digest is only a claim: an image naming a cached digest
 * whose bytes do not match it is refused with the TraceError a miss
 * would raise, and the cached entry is untouched.
 */
TEST(TraceStore, CorruptImageNamingCachedDigestIsRefused)
{
    TraceStore store(64u << 20);
    const auto image = makeImage(7);
    const std::uint64_t digest = store.put(image).digest;

    auto flipped = image;
    flipped[flipped.size() / 2] ^= 0x01;
    std::vector<std::uint8_t> headerOnly(
        image.begin(), image.begin() + trace::kTraceHeaderBytes);
    for (const auto *bad : {&flipped, &headerOnly}) {
        ASSERT_EQ(trace::tracePayloadDigest(*bad), digest);
        try {
            store.put(*bad);
            ADD_FAILURE() << "a corrupt image was acknowledged as cached";
        } catch (const trace::TraceError &e) {
            EXPECT_EQ(e.kind(), trace::TraceError::Kind::DigestMismatch);
            EXPECT_EQ(e.offset(), 16u);
        }
    }

    auto stats = store.stats();
    EXPECT_EQ(stats.reuses, 0u);
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_NE(store.get(digest), nullptr);
    EXPECT_TRUE(store.put(image).alreadyCached);
}

TEST(TraceStore, GetCountsHitsAndMisses)
{
    TraceStore store(64u << 20);
    const auto image = makeImage(7);
    const std::uint64_t digest = store.put(image).digest;

    EXPECT_NE(store.get(digest), nullptr);
    EXPECT_EQ(store.get(digest ^ 1), nullptr);

    auto stats = store.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
}

TEST(TraceStore, EvictsLeastRecentlyUsedFirst)
{
    const auto a = makeImage(1), b = makeImage(2), c = makeImage(3);

    // Scout the per-entry decoded footprints with an unbounded store.
    // They differ a little: a record's rows keep only nonzero counters.
    TraceStore scout(1u << 30);
    const auto entry_a = scout.put(a).entry;
    const std::size_t bytes_a = scout.stats().bytes;
    scout.put(b);
    const std::size_t bytes_b = scout.stats().bytes - bytes_a;
    scout.put(c);
    const std::size_t bytes_c = scout.stats().bytes - bytes_a - bytes_b;

    // The footprint counts what an entry holds: the table and the
    // answer grid (the decoded record is dropped at insert).
    EXPECT_EQ(entry_a->grid.size(),
              power::VfTable::haswell().points().size() *
                  entry_a->engine().predictors().size());
    EXPECT_EQ(bytes_a,
              entry_a->table.bytes() + entry_a->grid.size() * sizeof(Tick));

    // A store that holds A and either of B or C, never all three.
    // Recency order decides the victim: touching A after B's insert
    // must doom B, not A.
    const std::size_t two = bytes_a + std::max(bytes_b, bytes_c);
    ASSERT_LT(two, bytes_a + bytes_b + bytes_c);
    TraceStore store(two);
    const std::uint64_t da = store.put(a).digest;
    const std::uint64_t db = store.put(b).digest;
    ASSERT_NE(store.get(da), nullptr);  // A is now most recent
    const std::uint64_t dc = store.put(c).digest;

    EXPECT_EQ(store.get(db), nullptr) << "LRU entry was not evicted";
    EXPECT_NE(store.get(da), nullptr);
    EXPECT_NE(store.get(dc), nullptr);
    EXPECT_EQ(store.stats().evictions, 1u);
    EXPECT_EQ(store.stats().entries, 2u);

    // Even a single entry over budget stays: a cache that cannot hold
    // one trace serves nothing.
    TraceStore tiny(bytes_a / 2 + 1);
    tiny.put(a);
    EXPECT_NE(tiny.get(da), nullptr);
    EXPECT_EQ(tiny.stats().entries, 1u);
}

TEST(ServeService, ServedPredictionsMatchDirectReplay)
{
    TraceStore store(64u << 20);
    Service service(store);
    const auto image = makeImage(7);

    net::UploadTraceReq up;
    up.image = image;
    Frame upReply = service.handle(Frame::request(1, std::move(up)));
    EXPECT_TRUE(upReply.isResponse);
    EXPECT_EQ(upReply.requestId, 1u);
    const auto *upr = std::get_if<net::UploadTraceResp>(&upReply.body);
    ASSERT_NE(upr, nullptr);
    EXPECT_EQ(upr->traceDigest, trace::tracePayloadDigest(image));
    EXPECT_EQ(upr->alreadyCached, 0u);
    EXPECT_EQ(upr->baseMHz, 1000u);

    // The ground truth: a direct ReplayEngine evaluation of the trace.
    trace::ReplayEngine engine;
    const auto loaded = trace::decodeTrace(image);
    EXPECT_EQ(upr->totalTime, loaded.totalTime());
    EXPECT_EQ(upr->epochs, loaded.epochs().size());
    EXPECT_EQ(upr->threads, loaded.threads().size());

    net::PredictReq pq;
    pq.traceDigest = upr->traceDigest;
    pq.targetMHz = 4000;
    Frame pReply = service.handle(Frame::request(2, pq));
    const auto *pr = std::get_if<net::PredictResp>(&pReply.body);
    ASSERT_NE(pr, nullptr);
    EXPECT_EQ(pr->baseTotalTime, loaded.totalTime());

    auto direct = engine.evaluate(loaded, {{Frequency::mhz(4000), 0}});
    ASSERT_EQ(pr->cells.size(), direct.size());
    for (std::size_t i = 0; i < direct.size(); ++i) {
        EXPECT_EQ(pr->cells[i].predictor, direct[i].predictor);
        EXPECT_EQ(pr->cells[i].predicted, direct[i].predicted);
    }

    net::WhatIfGridReq wq;
    wq.traceDigest = upr->traceDigest;
    wq.targetsMHz = {2000, 3000};
    Frame wReply = service.handle(Frame::request(3, wq));
    const auto *wr = std::get_if<net::WhatIfGridResp>(&wReply.body);
    ASSERT_NE(wr, nullptr);
    EXPECT_EQ(wr->predictors, engine.predictorNames());
    ASSERT_EQ(wr->predicted.size(),
              wr->predictors.size() * wr->targetsMHz.size());

    auto grid = engine.evaluate(loaded, {{Frequency::mhz(2000), 0},
                                         {Frequency::mhz(3000), 0}});
    ASSERT_EQ(wr->predicted.size(), grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i)
        EXPECT_EQ(wr->predicted[i], grid[i].predicted);
}

/**
 * Served answers, read from a trace's answer grid at the V/f points
 * and walked off them, equal the reference walk of every Figure 3
 * predictor cell for cell, on three traces.
 */
TEST(ServeService, GridAnswersMatchTheReferenceWalk)
{
    TraceStore store(64u << 20);
    Service service(store);
    // The Figure 3 set as (family, spec) pairs, in the served order.
    std::vector<std::pair<std::string, pred::ModelSpec>> families;
    for (const char *family : {"M+CRIT", "COOP", "DEP"}) {
        for (bool burst : {false, true})
            families.push_back({family, {pred::BaseEstimator::Crit, burst}});
    }
    std::uint64_t id = 1;

    for (std::uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE("trace seed " + std::to_string(seed));
        const auto image = makeImage(seed);
        const auto loaded = trace::decodeTrace(image);
        net::UploadTraceReq up;
        up.image = image;
        const Frame upReply = service.handle(Frame::request(id++, up));
        const auto *upr = std::get_if<net::UploadTraceResp>(&upReply.body);
        ASSERT_NE(upr, nullptr);

        auto expectCells = [&](std::span<const net::PredictCell> cells,
                               Frequency target) {
            SCOPED_TRACE(std::to_string(target.toMHz()) + " MHz");
            ASSERT_EQ(cells.size(), families.size());
            for (std::size_t p = 0; p < families.size(); ++p) {
                const auto &[family, spec] = families[p];
                EXPECT_EQ(cells[p].predictor,
                          test::reference::make(family, spec)->name());
                EXPECT_EQ(cells[p].predicted,
                          test::reference::predict(family, spec, loaded,
                                                   target));
            }
        };

        // Every grid point, then targets off the grid: below, between
        // and above its points.
        std::vector<std::uint32_t> targets;
        for (const Frequency f : power::VfTable::haswell().frequencies())
            targets.push_back(f.toMHz());
        for (std::uint32_t mhz : {999u, 1001u, 1130u, 4125u})
            targets.push_back(mhz);
        for (std::uint32_t mhz : targets) {
            net::PredictReq pq;
            pq.traceDigest = upr->traceDigest;
            pq.targetMHz = mhz;
            const Frame reply = service.handle(Frame::request(id++, pq));
            const auto *pr = std::get_if<net::PredictResp>(&reply.body);
            ASSERT_NE(pr, nullptr);
            expectCells(pr->cells, Frequency::mhz(mhz));
        }

        // One what-if over on- and off-grid targets, unordered and
        // wider than one walk's chunk: the walked targets land at
        // their own positions among the stored ones.
        net::WhatIfGridReq wq;
        wq.traceDigest = upr->traceDigest;
        wq.targetsMHz = {4000, 1130, 1000, 2500, 4125, 999,  3875,
                         1001, 2000, 1250, 3333, 1500, 2750};
        ASSERT_GT(wq.targetsMHz.size(), pred::Predictor::kTargetChunk);
        const Frame reply = service.handle(Frame::request(id++, wq));
        const auto *wr = std::get_if<net::WhatIfGridResp>(&reply.body);
        ASSERT_NE(wr, nullptr);
        ASSERT_EQ(wr->predicted.size(),
                  wq.targetsMHz.size() * families.size());
        for (std::size_t t = 0; t < wq.targetsMHz.size(); ++t) {
            std::vector<net::PredictCell> cells;
            for (std::size_t p = 0; p < families.size(); ++p) {
                cells.push_back({wr->predictors[p],
                                 wr->predicted[t * families.size() + p]});
            }
            expectCells(cells, Frequency::mhz(wq.targetsMHz[t]));
        }
    }
}

TEST(ServeService, OptimalVfHonorsBoundAndTable)
{
    TraceStore store(64u << 20);
    Service service(store);
    const auto image = makeImage(7);
    net::UploadTraceReq up;
    up.image = image;
    Frame upReply = service.handle(Frame::request(1, std::move(up)));
    const auto *upr = std::get_if<net::UploadTraceResp>(&upReply.body);
    ASSERT_NE(upr, nullptr);

    const auto loaded = trace::decodeTrace(image);

    net::OptimalVfReq oq;
    oq.traceDigest = upr->traceDigest;
    std::uint64_t id = 2;
    auto ask = [&] {
        Frame reply = service.handle(Frame::request(id++, oq));
        const auto *resp = std::get_if<net::OptimalVfResp>(&reply.body);
        EXPECT_NE(resp, nullptr);
        return resp ? *resp : net::OptimalVfResp{};
    };

    // Every Figure 3 predictor, bound and table step against a direct
    // per-point scan with the reference walk. Steps of 0 (125 MHz),
    // 250, 375, 500 MHz and past 3000 MHz keep every point on the
    // answer grid; 1 and 100 MHz leave it. A bound of 3000 permille
    // admits the lowest point: no estimate grows past f_high/f_low = 4
    // times the highest point's.
    for (const char *family : {"M+CRIT", "COOP", "DEP"}) {
        for (bool burst : {false, true}) {
            const pred::ModelSpec spec{pred::BaseEstimator::Crit, burst};
            oq.predictor = test::reference::make(family, spec)->name();
            std::uint32_t prev_chosen = ~0u;
            for (std::uint32_t permille : {0u, 50u, 100u, 1000u, 3000u}) {
                for (std::uint32_t step :
                     {0u, 1u, 100u, 250u, 375u, 500u, 5000u, ~0u}) {
                    SCOPED_TRACE(oq.predictor + ", bound " +
                                 std::to_string(permille) +
                                 " permille, step " +
                                 std::to_string(step) + " MHz");
                    oq.slowdownPermille = permille;
                    oq.stepMHz = step;
                    const net::OptimalVfResp resp = ask();

                    const auto table =
                        power::VfTable::haswell(step == 0 ? 125 : step);
                    auto ref = [&](Frequency f) {
                        return test::reference::predict(family, spec,
                                                        loaded, f);
                    };
                    const Tick at_highest = ref(table.highest());
                    const double limit =
                        static_cast<double>(at_highest) *
                        (1.0 + static_cast<double>(permille) / 1000.0);
                    std::uint32_t chosen = table.highest().toMHz();
                    Tick at_chosen = at_highest;
                    for (const auto &point : table.points()) {
                        const Tick t = ref(point.freq);
                        if (static_cast<double>(t) <= limit) {
                            chosen = point.freq.toMHz();
                            at_chosen = t;
                            break;
                        }
                    }
                    EXPECT_EQ(resp.chosenMHz, chosen);
                    EXPECT_EQ(resp.predictedAtChosen, at_chosen);
                    EXPECT_EQ(resp.predictedAtHighest, at_highest);
                    EXPECT_EQ(resp.microvolts,
                              static_cast<std::uint64_t>(std::llround(
                                  table.voltageAt(Frequency::mhz(chosen)) *
                                  1e6)));
                    // The admissibility bound the handler promises.
                    EXPECT_LE(static_cast<double>(resp.predictedAtChosen),
                              limit);
                    if (step == 0) {
                        // A wider bound can only lower (or keep) the
                        // chosen frequency.
                        EXPECT_LE(resp.chosenMHz, prev_chosen);
                        prev_chosen = resp.chosenMHz;
                    }
                }
            }
        }
    }

    // No predictor named: DEP+BURST.
    oq.slowdownPermille = 100;
    oq.stepMHz = 0;
    oq.predictor = "DEP+BURST";
    const net::OptimalVfResp named = ask();
    oq.predictor.clear();
    const net::OptimalVfResp fallback = ask();
    EXPECT_EQ(fallback.chosenMHz, named.chosenMHz);
    EXPECT_EQ(fallback.predictedAtChosen, named.predictedAtChosen);
}

TEST(ServeService, EveryFailureIsAStructuredErrorReply)
{
    TraceStore store(64u << 20);
    Service service(store);
    const auto image = makeImage(7);
    net::UploadTraceReq up;
    up.image = image;
    Frame upReply = service.handle(Frame::request(1, std::move(up)));
    const auto *upr = std::get_if<net::UploadTraceResp>(&upReply.body);
    ASSERT_NE(upr, nullptr);

    // Query for a digest nobody uploaded.
    net::PredictReq pq;
    pq.traceDigest = upr->traceDigest ^ 1;
    pq.targetMHz = 2000;
    requireError(service.handle(Frame::request(2, pq)),
                 net::ErrorCode::UnknownTrace);

    // A corrupt upload of a NOT-yet-cached trace: strict decode fails
    // and nothing is cached. (A corrupt image naming a cached digest
    // is refused the same way: CorruptReuploadOfCachedTraceIsRefused.)
    net::UploadTraceReq bad;
    bad.image = makeImage(8);
    bad.image[bad.image.size() / 2] ^= 0x01;
    const Frame badReply =
        service.handle(Frame::request(3, std::move(bad)));
    const auto &err = requireError(badReply, net::ErrorCode::BadRequest);
    EXPECT_FALSE(err.message.empty());

    // Unknown predictor name.
    net::OptimalVfReq oq;
    oq.traceDigest = upr->traceDigest;
    oq.slowdownPermille = 100;
    oq.predictor = "NO-SUCH-PREDICTOR";
    requireError(service.handle(Frame::request(4, oq)),
                 net::ErrorCode::BadRequest);

    // A what-if grid with no targets.
    net::WhatIfGridReq wq;
    wq.traceDigest = upr->traceDigest;
    requireError(service.handle(Frame::request(5, wq)),
                 net::ErrorCode::BadRequest);

    // A newer client's message type: answered, not disconnected.
    Frame unknown;
    unknown.requestId = 6;
    unknown.rawType = 0x7000;
    requireError(service.handle(unknown),
                 net::ErrorCode::UnknownMessage);

    // A response frame is not a request.
    requireError(service.handle(Frame::response(7, net::StatsResp{})),
                 net::ErrorCode::BadRequest);

    // Every reply above carried its request's id.
    Frame stats = service.handle(Frame::request(8, net::StatsReq{}));
    const auto *sr = std::get_if<net::StatsResp>(&stats.body);
    ASSERT_NE(sr, nullptr);
    EXPECT_EQ(sr->requests, 8u);
    EXPECT_EQ(sr->errors, 6u);
    EXPECT_EQ(sr->tracesCached, 1u);
}

/**
 * A WhatIf whose reply would not fit in one frame is refused before
 * any target is walked: its request fits, but at 4 + 8 bytes per
 * predictor per target its reply would pass kMaxPayloadBytes, and no
 * client could read it.
 */
TEST(ServeService, WhatIfWhoseReplyCannotFitAFrameIsRefused)
{
    TraceStore store(64u << 20);
    Service service(store);
    net::UploadTraceReq up;
    up.image = makeImage(7);
    const Frame upReply = service.handle(Frame::request(1, std::move(up)));
    const auto *upr = std::get_if<net::UploadTraceResp>(&upReply.body);
    ASSERT_NE(upr, nullptr);

    const std::size_t per_target =
        4 + 8 * serve::CachedTrace::engine().predictorNames().size();
    net::WhatIfGridReq wq;
    wq.traceDigest = upr->traceDigest;
    wq.targetsMHz.assign(net::kMaxPayloadBytes / per_target + 1, 1000);
    ASSERT_LT(wq.targetsMHz.size() * 4, net::kMaxPayloadBytes);
    requireError(service.handle(Frame::request(2, wq)),
                 net::ErrorCode::BadRequest);
}

/**
 * A corrupt re-upload of a cached trace (one payload byte flipped, or
 * the 24-byte header alone) is a BadRequest at the digest's offset,
 * not an alreadyCached acknowledgement; the cached entry still serves
 * Predict, and a clean re-upload is still acknowledged as cached.
 */
TEST(ServeService, CorruptReuploadOfCachedTraceIsRefused)
{
    TraceStore store(64u << 20);
    Service service(store);
    const auto image = makeImage(7);
    net::UploadTraceReq up;
    up.image = image;
    Frame upReply = service.handle(Frame::request(1, up));
    const auto *upr = std::get_if<net::UploadTraceResp>(&upReply.body);
    ASSERT_NE(upr, nullptr);
    EXPECT_EQ(upr->alreadyCached, 0u);

    net::UploadTraceReq flipped;
    flipped.image = image;
    flipped.image[flipped.image.size() / 2] ^= 0x01;
    net::UploadTraceReq headerOnly;
    headerOnly.image.assign(image.begin(),
                            image.begin() + trace::kTraceHeaderBytes);
    std::uint64_t id = 2;
    for (const auto *bad : {&flipped, &headerOnly}) {
        const Frame reply = service.handle(Frame::request(id++, *bad));
        const auto &err = requireError(reply, net::ErrorCode::BadRequest);
        EXPECT_EQ(err.offset, 16u) << err.message;
    }

    net::PredictReq pq;
    pq.traceDigest = upr->traceDigest;
    pq.targetMHz = 2000;
    const Frame pReply = service.handle(Frame::request(id++, pq));
    const auto *pr = std::get_if<net::PredictResp>(&pReply.body);
    ASSERT_NE(pr, nullptr);
    EXPECT_EQ(pr->baseTotalTime, upr->totalTime);

    const Frame again = service.handle(Frame::request(id++, up));
    const auto *ar = std::get_if<net::UploadTraceResp>(&again.body);
    ASSERT_NE(ar, nullptr);
    EXPECT_EQ(ar->alreadyCached, 1u);
    EXPECT_EQ(ar->traceDigest, upr->traceDigest);
}

TEST(ServeServer, TcpEndToEndMatchesLocalServiceBitIdentically)
{
    serve::ServerConfig config;
    config.workers = 2;
    serve::Server server(config);
    ASSERT_NE(server.port(), 0);
    std::thread serverThread([&server] { server.run(); });

    // A local mirror of the server's application state: the same
    // request sequence must produce byte-identical replies.
    TraceStore mirrorStore(config.cacheBytes);
    Service mirror(mirrorStore);

    {
        auto client = net::RpcClient::connectTcp(server.port());
        const auto image = makeImage(7);

        net::UploadTraceReq up;
        up.image = image;
        Frame upReply = client.call(up);
        Frame upMirror =
            mirror.handle(Frame::request(upReply.requestId, up));
        EXPECT_EQ(net::encodeFrame(upReply),
                  net::encodeFrame(upMirror));
        const auto *upr =
            std::get_if<net::UploadTraceResp>(&upReply.body);
        ASSERT_NE(upr, nullptr);

        net::PredictReq pq;
        pq.traceDigest = upr->traceDigest;
        pq.targetMHz = 3000;
        Frame pReply = client.call(pq);
        Frame pMirror =
            mirror.handle(Frame::request(pReply.requestId, pq));
        EXPECT_EQ(net::encodeFrame(pReply), net::encodeFrame(pMirror));

        net::OptimalVfReq oq;
        oq.traceDigest = upr->traceDigest;
        oq.slowdownPermille = 200;
        Frame oReply = client.call(oq);
        Frame oMirror =
            mirror.handle(Frame::request(oReply.requestId, oq));
        EXPECT_EQ(net::encodeFrame(oReply), net::encodeFrame(oMirror));
    }

    server.stop();
    serverThread.join();
    EXPECT_GE(server.requestsServed(), 3u);
}

TEST(ServeServer, PayloadErrorKeepsConnectionHeaderErrorClosesIt)
{
    serve::ServerConfig config;
    config.workers = 1;
    serve::Server server(config);
    std::thread serverThread([&server] { server.run(); });

    const int fd = net::connectTcp(server.port());

    // A frame whose header is sound but whose payload is malformed
    // (nonzero reserved word, digest resealed so only the structural
    // check can catch it): the frame boundary is known, so the server
    // answers Error{BadRequest} and keeps the stream usable.
    net::PredictReq pq;
    pq.traceDigest = 1;
    pq.targetMHz = 2000;
    auto malformed = net::encodeFrame(Frame::request(1, pq));
    malformed[net::kFrameHeaderBytes + 12] = 0xff;
    resealDigest(malformed);
    net::sendAll(fd, malformed.data(), malformed.size());

    Frame reply;
    ASSERT_TRUE(recvFrame(fd, reply));
    requireError(reply, net::ErrorCode::BadRequest);

    // The connection survived: a well-formed request still answers.
    const auto stats = net::encodeFrame(
        Frame::request(2, net::StatsReq{}));
    net::sendAll(fd, stats.data(), stats.size());
    ASSERT_TRUE(recvFrame(fd, reply));
    EXPECT_EQ(reply.requestId, 2u);
    EXPECT_TRUE(std::holds_alternative<net::StatsResp>(reply.body));

    // Garbage where a header should be: the stream itself cannot be
    // trusted, so the Error reply is followed by a close.
    const std::uint8_t junk[net::kFrameHeaderBytes] = {0};
    net::sendAll(fd, junk, sizeof(junk));
    ASSERT_TRUE(recvFrame(fd, reply));
    requireError(reply, net::ErrorCode::BadRequest);
    EXPECT_FALSE(recvFrame(fd, reply))
        << "connection stayed open after a header-level error";
    ::close(fd);

    server.stop();
    serverThread.join();
}

TEST(ServeServer, UnixSocketEndToEnd)
{
    serve::ServerConfig config;
    config.unixPath = testing::TempDir() + "/dvfsd_test.sock";
    config.workers = 1;
    serve::Server server(config);
    EXPECT_EQ(server.port(), 0);
    std::thread serverThread([&server] { server.run(); });

    {
        auto client = net::RpcClient::connectUnix(config.unixPath);
        Frame reply = client.call(net::StatsReq{});
        const auto *sr = std::get_if<net::StatsResp>(&reply.body);
        ASSERT_NE(sr, nullptr);
        EXPECT_EQ(sr->requests, 1u);
    }

    server.stop();
    serverThread.join();
    // The socket file is unlinked on server destruction, not here.
}

namespace {

/** Descriptors this process holds open. */
std::size_t
openFds()
{
    std::size_t n = 0;
    for ([[maybe_unused]] const auto &entry :
         std::filesystem::directory_iterator("/proc/self/fd"))
        ++n;
    return n;
}

} // namespace

TEST(ServeServer, FailedConstructionLeaksNoDescriptors)
{
    const std::size_t before = openFds();

    // A Unix path longer than sun_path is refused before any socket
    // exists, by the server and by the client helper alike.
    serve::ServerConfig too_long;
    too_long.unixPath =
        testing::TempDir() + "/" + std::string(200, 'x') + ".sock";
    too_long.workers = 1;
    for (int i = 0; i < 3; ++i) {
        EXPECT_THROW({ serve::Server server(too_long); }, net::SocketError);
        EXPECT_THROW(net::connectUnix(too_long.unixPath), net::SocketError);
    }
    EXPECT_EQ(openFds(), before);

    // A TCP port another socket listens on fails at bind().
    std::uint16_t port = 0;
    const int holder = net::listenTcp(0, &port);
    const std::size_t holding = openFds();
    serve::ServerConfig taken;
    taken.tcpPort = port;
    taken.workers = 1;
    for (int i = 0; i < 3; ++i)
        EXPECT_THROW({ serve::Server server(taken); }, net::SocketError);
    EXPECT_EQ(openFds(), holding);
    ::close(holder);
    EXPECT_EQ(openFds(), before);
}
