#include "serve/server.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "exp/sweep/pool.hh"
#include "net/socket.hh"

namespace dvfs::serve {

Server::Server(const ServerConfig &config)
    : _unixPath(config.unixPath),
      _workers(config.workers != 0 ? config.workers
                                   : exp::sweep::defaultWorkers()),
      _maxInFlight(std::max<std::size_t>(1, config.maxInFlight)),
      _store(config.cacheBytes),
      _service(_store, &_counters)
{
    try {
        if (!_unixPath.empty())
            _listenFd = net::listenUnix(_unixPath);
        else
            _listenFd = net::listenTcp(config.tcpPort, &_port);
        net::setNonBlocking(_listenFd);

        if (::pipe(_stopPipe) < 0) {
            throw net::SocketError(std::string("pipe: ") +
                                   std::strerror(errno));
        }
        net::setNonBlocking(_stopPipe[0]);
    } catch (...) {
        // No destructor runs after a throwing constructor: release
        // what was acquired here.
        for (int fd : {_listenFd, _stopPipe[0], _stopPipe[1]}) {
            if (fd >= 0)
                ::close(fd);
        }
        if (_listenFd >= 0 && !_unixPath.empty())
            ::unlink(_unixPath.c_str());
        throw;
    }
}

Server::~Server()
{
    for (auto &[fd, conn] : _conns)
        ::close(fd);
    if (_listenFd >= 0)
        ::close(_listenFd);
    if (_stopPipe[0] >= 0)
        ::close(_stopPipe[0]);
    if (_stopPipe[1] >= 0)
        ::close(_stopPipe[1]);
    if (!_unixPath.empty())
        ::unlink(_unixPath.c_str());
}

void
Server::stop()
{
    // Single write(2): async-signal-safe by POSIX, so SIGTERM/SIGINT
    // handlers call this directly. The byte value is irrelevant.
    const char byte = 's';
    [[maybe_unused]] ssize_t w = ::write(_stopPipe[1], &byte, 1);
}

void
Server::run()
{
    std::vector<pollfd> fds;
    std::vector<int> fdOwner;  // conn fd per pollfd slot; -1 = control

    while (true) {
        fds.clear();
        fdOwner.clear();
        fds.push_back({_stopPipe[0], POLLIN, 0});
        fdOwner.push_back(-1);
        if (!_draining && _listenFd >= 0) {
            fds.push_back({_listenFd, POLLIN, 0});
            fdOwner.push_back(-2);
        }
        bool anyPending = false;
        for (auto &[fd, conn] : _conns) {
            short events = 0;
            if (!_draining && !conn.peerClosed && !conn.closeAfterFlush)
                events |= POLLIN;
            if (conn.outOff < conn.outBuf.size())
                events |= POLLOUT;
            fds.push_back({fd, events, 0});
            fdOwner.push_back(fd);
            anyPending = anyPending || !conn.pending.empty();
        }

        if (_draining && !anyPending) {
            // Every queued request is served; all that may remain is
            // unflushed reply bytes, which the loop below pushes out.
            bool flushed = true;
            for (auto &[fd, conn] : _conns)
                flushed = flushed && conn.outOff >= conn.outBuf.size();
            if (flushed)
                break;
        }

        int rc = ::poll(fds.data(), fds.size(), anyPending ? 0 : -1);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            throw net::SocketError(std::string("poll: ") +
                                   std::strerror(errno));
        }

        for (std::size_t i = 0; i < fds.size(); ++i) {
            if (!(fds[i].revents & (POLLIN | POLLOUT | POLLHUP | POLLERR)))
                continue;
            if (fdOwner[i] == -1) {
                // stop(): drain the pipe, stop accepting and reading.
                std::uint8_t sink[64];
                while (::read(_stopPipe[0], sink, sizeof(sink)) > 0) {}
                _draining = true;
                if (_listenFd >= 0) {
                    ::close(_listenFd);
                    _listenFd = -1;
                }
            } else if (fdOwner[i] == -2) {
                if (!_draining)
                    acceptReady();
            } else {
                auto it = _conns.find(fdOwner[i]);
                if (it == _conns.end())
                    continue;
                if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
                    if (!_draining)
                        readConn(it->first, it->second);
                    else
                        it->second.peerClosed = true;
                }
            }
        }

        runBatch();

        _doomed.clear();
        for (auto &[fd, conn] : _conns) {
            if (conn.outOff < conn.outBuf.size())
                flushConn(fd, conn);
            if (finished(conn))
                _doomed.push_back(fd);
        }
        for (int fd : _doomed) {
            ::close(fd);
            _conns.erase(fd);
        }
    }

    // Drained: every reply flushed. Hang up on the survivors.
    for (auto &[fd, conn] : _conns)
        ::close(fd);
    _conns.clear();
}

void
Server::acceptReady()
{
    while (true) {
        int fd = ::accept(_listenFd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return;
            throw net::SocketError(std::string("accept: ") +
                                   std::strerror(errno));
        }
        net::setNonBlocking(fd);
        if (_unixPath.empty()) {
            int one = 1;
            ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                         sizeof(one));
        }
        _conns.emplace(fd, Conn{});
    }
}

void
Server::readConn(int fd, Conn &conn)
{
    std::uint8_t chunk[64 * 1024];
    while (true) {
        ssize_t r = ::recv(fd, chunk, sizeof(chunk), 0);
        if (r > 0) {
            conn.readBuf.insert(conn.readBuf.end(), chunk, chunk + r);
            continue;
        }
        if (r == 0) {
            conn.peerClosed = true;
            break;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        // Transport failure: nothing further can be read or written.
        conn.peerClosed = true;
        conn.closeAfterFlush = true;
        conn.pending.clear();
        conn.outBuf.clear();
        conn.outOff = 0;
        return;
    }
    extractFrames(conn);
}

void
Server::extractFrames(Conn &conn)
{
    std::size_t consumed = 0;
    while (!conn.closeAfterFlush &&
           conn.readBuf.size() - consumed >= net::kFrameHeaderBytes) {
        const std::uint8_t *head = conn.readBuf.data() + consumed;
        std::uint32_t payload = 0;
        try {
            payload = net::peekPayloadLength(head,
                                             net::kFrameHeaderBytes);
        } catch (const net::ProtoError &e) {
            // The stream can no longer be framed; answer and hang up.
            queueReply(conn, net::Frame::response(
                                 0, net::errorResp(net::ErrorCode::BadRequest,
                                                   e.offset(), e.what())));
            conn.closeAfterFlush = true;
            consumed = conn.readBuf.size();
            break;
        }

        const std::size_t whole = net::kFrameHeaderBytes + payload;
        if (conn.readBuf.size() - consumed < whole)
            break;  // incomplete tail; wait for more bytes

        try {
            enqueueRequest(conn, net::decodeFrame(head, whole));
        } catch (const net::ProtoError &e) {
            // Payload-level damage: the frame boundary is still known,
            // so reply and resynchronize on the next frame. The
            // request id cannot be trusted out of a corrupt payload,
            // so the reply carries id 0.
            queueReply(conn, net::Frame::response(
                                 0, net::errorResp(net::ErrorCode::BadRequest,
                                                   e.offset(), e.what())));
        }
        consumed += whole;
    }
    conn.readBuf.erase(conn.readBuf.begin(),
                       conn.readBuf.begin() +
                           static_cast<std::ptrdiff_t>(consumed));
}

void
Server::enqueueRequest(Conn &conn, net::Frame frame)
{
    if (conn.pending.size() >= _maxInFlight) {
        // Shed the OLDEST queued request: its client has waited the
        // longest already and is the most likely to have given up.
        const net::Frame &oldest = conn.pending.front();
        queueReply(conn, net::Frame::response(
                             oldest.requestId,
                             net::errorResp(net::ErrorCode::Overloaded, 0,
                                            "request shed under "
                                            "backpressure; retry later")));
        conn.pending.pop_front();
        _counters.shedOverload.fetch_add(1, std::memory_order_relaxed);
    }
    conn.pending.push_back(std::move(frame));
}

void
Server::runBatch()
{
    // One batch per loop iteration: every request queued on any
    // connection, in (fd, arrival) order so replies are deterministic.
    std::vector<std::pair<Conn *, net::Frame>> work;
    for (auto &[fd, conn] : _conns) {
        while (!conn.pending.empty()) {
            work.emplace_back(&conn, std::move(conn.pending.front()));
            conn.pending.pop_front();
        }
    }
    if (work.empty())
        return;

    std::vector<net::Frame> replies(work.size());
    const unsigned workers = static_cast<unsigned>(std::min<std::size_t>(
        _workers, work.size()));
    exp::sweep::runIndexed(work.size(), std::max(1u, workers),
                           [&](std::size_t i) {
                               replies[i] =
                                   _service.handle(work[i].second);
                           });

    _counters.batches.fetch_add(1, std::memory_order_relaxed);
    std::uint64_t prev =
        _counters.maxBatch.load(std::memory_order_relaxed);
    while (prev < work.size() &&
           !_counters.maxBatch.compare_exchange_weak(
               prev, work.size(), std::memory_order_relaxed)) {
    }

    // Replies are appended by this thread only, after the barrier, in
    // batch order — per-connection reply order matches request order.
    for (std::size_t i = 0; i < work.size(); ++i)
        queueReply(*work[i].first, replies[i]);
}

void
Server::queueReply(Conn &conn, const net::Frame &reply)
{
    const std::vector<std::uint8_t> bytes = net::encodeFrame(reply);
    conn.outBuf.insert(conn.outBuf.end(), bytes.begin(), bytes.end());
}

void
Server::flushConn(int fd, Conn &conn)
{
    while (conn.outOff < conn.outBuf.size()) {
        ssize_t w = ::send(fd, conn.outBuf.data() + conn.outOff,
                           conn.outBuf.size() - conn.outOff,
                           MSG_NOSIGNAL);
        if (w >= 0) {
            conn.outOff += static_cast<std::size_t>(w);
            continue;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return;
        // Peer is gone; nothing left worth keeping.
        conn.peerClosed = true;
        conn.closeAfterFlush = true;
        conn.pending.clear();
        conn.outBuf.clear();
        conn.outOff = 0;
        return;
    }
    conn.outBuf.clear();
    conn.outOff = 0;
}

bool
Server::finished(const Conn &conn) const
{
    return (conn.peerClosed || conn.closeAfterFlush) &&
           conn.pending.empty() && conn.outOff >= conn.outBuf.size();
}

} // namespace dvfs::serve
