// Socket endpoint addressing for the real-socket transport backend.
//
// Two address families, one URL-ish syntax:
//
//   tcp://host:port    TCP over loopback or a real NIC (host resolved via
//                      getaddrinfo; port 0 binds an ephemeral port, which
//                      listeners report back via local_tcp_port)
//   uds://path         Unix-domain stream socket at `path` (the scheme's
//                      "//" is followed by an absolute or relative path, so
//                      uds:///tmp/x.sock names /tmp/x.sock)
//
// This header owns every raw socket syscall the backend needs — parse,
// listen, dial, accept, O_NONBLOCK / TCP_NODELAY fiddling — so the event
// loop and connection state machines above it never see errno directly:
// failures surface as lsa::Error with the syscall and strerror text.
#pragma once

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <string>

#include "common/error.h"

namespace lsa::transport::socket {

struct SocketAddr {
  enum class Kind { kTcp, kUds };

  Kind kind = Kind::kTcp;
  std::string host;         ///< TCP only
  std::uint16_t port = 0;   ///< TCP only
  std::string path;         ///< UDS only

  /// Parses "tcp://host:port" or "uds://path". Throws ConfigError on any
  /// malformed input (unknown scheme, missing port, empty path).
  [[nodiscard]] static SocketAddr parse(const std::string& url) {
    SocketAddr a;
    if (url.rfind("tcp://", 0) == 0) {
      a.kind = Kind::kTcp;
      const std::string rest = url.substr(6);
      const auto colon = rest.rfind(':');
      lsa::require<lsa::ConfigError>(colon != std::string::npos && colon > 0,
                                     "socket: tcp address needs host:port");
      a.host = rest.substr(0, colon);
      const std::string port_str = rest.substr(colon + 1);
      char* end = nullptr;
      const unsigned long p = std::strtoul(port_str.c_str(), &end, 10);
      if (end == nullptr || *end != '\0' || port_str.empty() || p > 65535) {
        throw lsa::ConfigError("socket: bad tcp port '" + port_str + "'");
      }
      a.port = static_cast<std::uint16_t>(p);
      return a;
    }
    if (url.rfind("uds://", 0) == 0) {
      a.kind = Kind::kUds;
      a.path = url.substr(6);
      lsa::require<lsa::ConfigError>(!a.path.empty(),
                                     "socket: empty uds path");
      lsa::require<lsa::ConfigError>(
          a.path.size() < sizeof(sockaddr_un{}.sun_path),
          "socket: uds path too long");
      return a;
    }
    throw lsa::ConfigError("socket: address must start with tcp:// or uds://"
                           " (got '" + url + "')");
  }

  [[nodiscard]] std::string to_string() const {
    if (kind == Kind::kUds) return "uds://" + path;
    return "tcp://" + host + ":" + std::to_string(port);
  }
};

namespace detail {

[[noreturn]] inline void throw_errno(const std::string& what, int err) {
  throw lsa::Error("socket: " + what + ": " + std::strerror(err));
}

}  // namespace detail

inline void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    detail::throw_errno("fcntl(O_NONBLOCK)", errno);
  }
}

/// Disables Nagle on TCP sockets (frame latency matters more than tinygram
/// coalescing: one protocol frame is one logical message). No-op for UDS.
inline void set_nodelay(int fd, const SocketAddr& addr) {
  if (addr.kind != SocketAddr::Kind::kTcp) return;
  const int one = 1;
  if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) < 0) {
    detail::throw_errno("setsockopt(TCP_NODELAY)", errno);
  }
}

/// Creates a non-blocking listening socket bound to `addr`. For UDS, any
/// stale socket file at the path is unlinked first (daemon restarts).
[[nodiscard]] inline int bind_listen(const SocketAddr& addr,
                                     int backlog = 128) {
  int fd = -1;
  if (addr.kind == SocketAddr::Kind::kUds) {
    fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) detail::throw_errno("socket(AF_UNIX)", errno);
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    std::strncpy(sa.sun_path, addr.path.c_str(), sizeof(sa.sun_path) - 1);
    ::unlink(addr.path.c_str());
    if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) < 0) {
      const int err = errno;
      ::close(fd);
      detail::throw_errno("bind(" + addr.path + ")", err);
    }
  } else {
    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    hints.ai_flags = AI_PASSIVE;
    addrinfo* res = nullptr;
    const std::string port_str = std::to_string(addr.port);
    const int rc =
        ::getaddrinfo(addr.host.c_str(), port_str.c_str(), &hints, &res);
    if (rc != 0 || res == nullptr) {
      throw lsa::Error("socket: getaddrinfo(" + addr.host +
                       "): " + std::string(::gai_strerror(rc)));
    }
    fd = ::socket(res->ai_family, res->ai_socktype | SOCK_CLOEXEC,
                  res->ai_protocol);
    if (fd < 0) {
      ::freeaddrinfo(res);
      detail::throw_errno("socket(AF_INET)", errno);
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, res->ai_addr, res->ai_addrlen) < 0) {
      const int err = errno;
      ::freeaddrinfo(res);
      ::close(fd);
      detail::throw_errno("bind(" + addr.to_string() + ")", err);
    }
    ::freeaddrinfo(res);
  }
  if (::listen(fd, backlog) < 0) {
    const int err = errno;
    ::close(fd);
    detail::throw_errno("listen(" + addr.to_string() + ")", err);
  }
  set_nonblocking(fd);
  return fd;
}

/// The port a TCP listener actually bound (resolves port 0 to the kernel's
/// ephemeral pick — how tests avoid fixed-port collisions).
[[nodiscard]] inline std::uint16_t local_tcp_port(int listen_fd) {
  sockaddr_storage ss{};
  socklen_t len = sizeof(ss);
  if (::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&ss), &len) < 0) {
    detail::throw_errno("getsockname", errno);
  }
  if (ss.ss_family == AF_INET) {
    return ntohs(reinterpret_cast<sockaddr_in*>(&ss)->sin_port);
  }
  if (ss.ss_family == AF_INET6) {
    return ntohs(reinterpret_cast<sockaddr_in6*>(&ss)->sin6_port);
  }
  throw lsa::Error("socket: getsockname: not a TCP socket");
}

/// One blocking connect attempt. Returns the connected fd (still blocking;
/// the caller flips it non-blocking once adopted by the event loop), or -1
/// when the listener is not there yet (ECONNREFUSED / ENOENT — the caller's
/// retry loop handles daemon startup races). Any other failure throws.
[[nodiscard]] inline int dial_once(const SocketAddr& addr) {
  int fd = -1;
  int rc = -1;
  if (addr.kind == SocketAddr::Kind::kUds) {
    fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) detail::throw_errno("socket(AF_UNIX)", errno);
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    std::strncpy(sa.sun_path, addr.path.c_str(), sizeof(sa.sun_path) - 1);
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
  } else {
    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* res = nullptr;
    const std::string port_str = std::to_string(addr.port);
    const int gai =
        ::getaddrinfo(addr.host.c_str(), port_str.c_str(), &hints, &res);
    if (gai != 0 || res == nullptr) {
      throw lsa::Error("socket: getaddrinfo(" + addr.host +
                       "): " + std::string(::gai_strerror(gai)));
    }
    fd = ::socket(res->ai_family, res->ai_socktype | SOCK_CLOEXEC,
                  res->ai_protocol);
    if (fd < 0) {
      ::freeaddrinfo(res);
      detail::throw_errno("socket(AF_INET)", errno);
    }
    rc = ::connect(fd, res->ai_addr, res->ai_addrlen);
    ::freeaddrinfo(res);
  }
  if (rc == 0) return fd;
  const int err = errno;
  ::close(fd);
  if (err == ECONNREFUSED || err == ENOENT || err == EAGAIN) return -1;
  detail::throw_errno("connect(" + addr.to_string() + ")", err);
}

}  // namespace lsa::transport::socket
