/**
 * @file
 * dvfsd: the prediction-serving daemon.
 *
 * Serves the DVFSRPC1 protocol (DESIGN.md section 12) over TCP
 * (127.0.0.1) or a Unix-domain socket: clients upload .dvfstrace
 * images once, then issue Predict / WhatIfGrid / OptimalVf / Stats
 * queries against the cached trace by digest. Queries from all
 * connections are batched onto the sweep pool, so concurrent clients
 * share the machine the way offline sweeps do.
 *
 * SIGTERM/SIGINT starts a graceful drain: stop accepting, answer
 * everything already queued, flush, exit 0.
 *
 * Usage: dvfsd [--port=N] [--unix=PATH] [--workers=N]
 *              [--cache-mb=N] [--max-in-flight=N]
 */

#include <csignal>
#include <iostream>
#include <limits>

#include "bench_util.hh"
#include "serve/server.hh"

using namespace dvfs;

namespace {

serve::Server *g_server = nullptr;

void
onSignal(int)
{
    if (g_server)
        g_server->stop();  // async-signal-safe (one self-pipe write)
}

} // namespace

int
main(int argc, char **argv)
{
    bench::FlagSet args("dvfsd", "the DVFS prediction-serving daemon");
    args.add("port", "N",
             "TCP listen port on 127.0.0.1 (default 0 = ephemeral; "
             "the chosen port is printed)")
        .add("unix", "PATH",
             "listen on a Unix-domain socket instead of TCP")
        .addWorkers()
        .add("cache-mb", "N",
             "trace cache budget in MB of tables and grids (default 256)")
        .add("max-in-flight", "N",
             "per-connection queued-request bound before oldest-first "
             "shedding (default 64)");
    args.parse(argc, argv);

    serve::ServerConfig cfg;
    cfg.tcpPort =
        static_cast<std::uint16_t>(args.getInt("port", 0, 0, 65535));
    cfg.unixPath = args.get("unix");
    cfg.workers = bench::sweepWorkers(args);
    // Bounded so the MB -> bytes shift cannot overflow.
    const long max_cache_mb =
        static_cast<long>(std::numeric_limits<std::size_t>::max() >> 20);
    cfg.cacheBytes = static_cast<std::size_t>(args.getInt(
                         "cache-mb", 256, 1, max_cache_mb))
                     << 20;
    cfg.maxInFlight =
        static_cast<std::size_t>(args.getInt("max-in-flight", 64, 1));

    serve::Server server(cfg);
    g_server = &server;
    std::signal(SIGTERM, onSignal);
    std::signal(SIGINT, onSignal);

    if (cfg.unixPath.empty()) {
        std::cout << "dvfsd: listening on 127.0.0.1:" << server.port()
                  << " (workers=" << cfg.workers
                  << ", cache=" << (cfg.cacheBytes >> 20) << "MB)"
                  << std::endl;
    } else {
        std::cout << "dvfsd: listening on " << cfg.unixPath
                  << " (workers=" << cfg.workers
                  << ", cache=" << (cfg.cacheBytes >> 20) << "MB)"
                  << std::endl;
    }

    server.run();
    std::cout << "dvfsd: drained; served " << server.requestsServed()
              << " requests\n";
    return 0;
}
