/**
 * @file
 * dvfsd's socket front end: accept, frame, batch, reply, drain.
 *
 * One poll()-driven loop owns every connection. Complete frames pulled
 * off the sockets queue per connection; each loop iteration then drains
 * every queued request across all connections into one batch and runs
 * it on the sweep pool (`exp::sweep::runIndexed`) — so concurrent
 * clients' replays share the same worker set the offline sweeps use,
 * and a single slow replay never serializes the others.
 *
 * Flow control and failure policy:
 *  - Per-connection backpressure: at most `maxInFlight` queued requests
 *    per connection. When a new frame lands on a full queue the OLDEST
 *    queued request is shed with Error{Overloaded} (its reply slot is
 *    the cheapest to abandon — the client has waited longest and can
 *    retry) and the new frame takes its place.
 *  - A payload-level ProtoError (bad digest, bad field) keeps the
 *    connection: the frame boundary is known, so the server replies
 *    Error{BadRequest} and resynchronizes on the next frame. A
 *    header-level ProtoError (bad magic/version/oversized) means the
 *    stream itself can't be trusted: reply Error{BadRequest} and close
 *    after the flush.
 *  - stop() (async-signal-safe; SIGTERM handlers call it) starts a
 *    graceful drain: stop accepting and reading, serve every request
 *    already queued, flush every reply, then return from run().
 */

#ifndef DVFS_SERVE_SERVER_HH
#define DVFS_SERVE_SERVER_HH

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "net/proto.hh"
#include "serve/service.hh"
#include "serve/trace_store.hh"

namespace dvfs::serve {

struct ServerConfig {
    /** TCP listen port (0 = ephemeral); ignored if unixPath is set. */
    std::uint16_t tcpPort = 0;
    /** If non-empty, listen on this Unix-domain socket instead. */
    std::string unixPath;
    /** Replay pool width (0 = exp::sweep::defaultWorkers()). */
    unsigned workers = 0;
    /** Trace cache budget in entry bytes (table and answer grid). */
    std::size_t cacheBytes = 256u << 20;
    /** Per-connection queued-request bound (>= 1). */
    std::size_t maxInFlight = 64;
};

class Server
{
  public:
    /** Binds the listen socket immediately; run() starts serving. */
    explicit Server(const ServerConfig &config);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Actual TCP port (after ephemeral resolution); 0 for Unix. */
    std::uint16_t port() const { return _port; }

    /**
     * Serve until stop(). Blocks; the caller owns the thread. Returns
     * after the graceful drain completes.
     */
    void run();

    /**
     * Begin graceful drain. Async-signal-safe (a single write to the
     * self-pipe), so SIGTERM/SIGINT handlers may call it directly.
     */
    void stop();

    /** Request totals served so far (for the daemon's exit summary). */
    std::uint64_t requestsServed() const
    {
        return _service.requestsServed();
    }

  private:
    struct Conn {
        std::vector<std::uint8_t> readBuf;
        /** Encoded replies not yet written, plus write offset. */
        std::vector<std::uint8_t> outBuf;
        std::size_t outOff = 0;
        /** Complete frames awaiting a batch slot. */
        std::deque<net::Frame> pending;
        bool peerClosed = false;   ///< EOF seen; no more reads
        bool closeAfterFlush = false;  ///< framing broken; hang up
    };

    void acceptReady();
    void readConn(int fd, Conn &conn);
    /** Extract complete frames from conn.readBuf into conn.pending. */
    void extractFrames(Conn &conn);
    void enqueueRequest(Conn &conn, net::Frame frame);
    void runBatch();
    void flushConn(int fd, Conn &conn);
    void queueReply(Conn &conn, const net::Frame &reply);
    bool finished(const Conn &conn) const;

    std::uint16_t _port = 0;
    int _listenFd = -1;
    int _stopPipe[2] = {-1, -1};
    bool _draining = false;
    std::string _unixPath;  ///< unlinked on destruction if non-empty
    unsigned _workers;
    std::size_t _maxInFlight;

    std::map<int, Conn> _conns;
    std::vector<int> _doomed;  ///< fds to erase after the sweep

    TraceStore _store;
    ServerCounters _counters;
    Service _service;
};

} // namespace dvfs::serve

#endif // DVFS_SERVE_SERVER_HH
