#include "net/socket.hh"

#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace dvfs::net {

namespace {

[[noreturn]] void
fail(const std::string &what)
{
    throw SocketError(what + ": " + std::strerror(errno));
}

sockaddr_un
unixAddr(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        throw SocketError("unix socket path '" + path +
                          "' exceeds sun_path");
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return addr;
}

} // namespace

int
listenTcp(std::uint16_t port, std::uint16_t *chosen_port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        fail("socket(AF_INET)");
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) <
        0) {
        ::close(fd);
        fail("bind(127.0.0.1:" + std::to_string(port) + ")");
    }
    if (::listen(fd, 128) < 0) {
        ::close(fd);
        fail("listen");
    }
    if (chosen_port) {
        sockaddr_in bound{};
        socklen_t len = sizeof(bound);
        if (::getsockname(fd, reinterpret_cast<sockaddr *>(&bound),
                          &len) < 0) {
            ::close(fd);
            fail("getsockname");
        }
        *chosen_port = ntohs(bound.sin_port);
    }
    return fd;
}

int
listenUnix(const std::string &path)
{
    sockaddr_un addr = unixAddr(path);
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        fail("socket(AF_UNIX)");
    ::unlink(path.c_str());  // replace a stale socket file
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) <
        0) {
        ::close(fd);
        fail("bind('" + path + "')");
    }
    if (::listen(fd, 128) < 0) {
        ::close(fd);
        fail("listen('" + path + "')");
    }
    return fd;
}

int
connectTcp(std::uint16_t port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        fail("socket(AF_INET)");
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) < 0) {
        ::close(fd);
        fail("connect(127.0.0.1:" + std::to_string(port) + ")");
    }
    return fd;
}

int
connectUnix(const std::string &path)
{
    sockaddr_un addr = unixAddr(path);
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        fail("socket(AF_UNIX)");
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) < 0) {
        ::close(fd);
        fail("connect('" + path + "')");
    }
    return fd;
}

void
sendAll(int fd, const std::uint8_t *data, std::size_t n)
{
    std::size_t sent = 0;
    while (sent < n) {
        ssize_t w = ::send(fd, data + sent, n - sent, MSG_NOSIGNAL);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            fail("send");
        }
        sent += static_cast<std::size_t>(w);
    }
}

bool
recvAll(int fd, std::uint8_t *data, std::size_t n)
{
    std::size_t got = 0;
    while (got < n) {
        ssize_t r = ::recv(fd, data + got, n - got, 0);
        if (r < 0) {
            if (errno == EINTR)
                continue;
            fail("recv");
        }
        if (r == 0) {
            if (got == 0)
                return false;  // clean EOF between frames
            throw SocketError("peer closed mid-frame (" +
                              std::to_string(got) + " of " +
                              std::to_string(n) + " bytes)");
        }
        got += static_cast<std::size_t>(r);
    }
    return true;
}

void
setNonBlocking(int fd)
{
    int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
        fail("fcntl(O_NONBLOCK)");
}

} // namespace dvfs::net
