#include "net/socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

namespace asap {
namespace net {

namespace {

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

Result<Socket> MakeSocket(int domain, const std::string& what) {
  const int fd = ::socket(domain, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(Errno(what));
  }
  return Socket(fd);
}

Result<sockaddr_in> TcpAddress(const std::string& host, uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad IPv4 address: " + host);
  }
  return addr;
}

Result<sockaddr_un> UdsAddress(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("bad unix socket path: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

int Socket::Release() {
  const int fd = fd_;
  fd_ = -1;
  return fd;
}

Status Socket::SetNonBlocking() {
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IOError(Errno("fcntl(O_NONBLOCK)"));
  }
  return Status::OK();
}

Status Socket::SetTcpNoDelay() {
  const int one = 1;
  if (::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) < 0) {
    return Status::IOError(Errno("setsockopt(TCP_NODELAY)"));
  }
  return Status::OK();
}

AcceptStatus AcceptNonBlocking(const Socket& listener, Socket* out) {
#if defined(__linux__)
  const int fd =
      ::accept4(listener.fd(), nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
#else
  const int fd = ::accept(listener.fd(), nullptr, nullptr);
#endif
  if (fd < 0) {
    if (errno == EINTR || errno == ECONNABORTED) {
      return AcceptStatus::kRetry;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return AcceptStatus::kWouldBlock;
    }
    return AcceptStatus::kError;
  }
  Socket sock(fd);
#if !defined(__linux__)
  if (!sock.SetNonBlocking().ok()) {
    return AcceptStatus::kRetry;  // treat a failed setup as a lost conn
  }
#endif
  *out = std::move(sock);
  return AcceptStatus::kAccepted;
}

RecvStatus RecvSome(int fd, char* buffer, size_t capacity, size_t* n) {
  for (;;) {
    const ssize_t got = ::recv(fd, buffer, capacity, 0);
    if (got > 0) {
      *n = static_cast<size_t>(got);
      return RecvStatus::kData;
    }
    if (got == 0) {
      return RecvStatus::kEof;
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return RecvStatus::kWouldBlock;
    }
    return RecvStatus::kError;
  }
}

Status SendAll(int fd, const char* data, size_t n) {
  size_t sent = 0;
  while (sent < n) {
    const ssize_t wrote = ::send(fd, data + sent, n - sent, MSG_NOSIGNAL);
    if (wrote < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Status::IOError(Errno("send"));
    }
    sent += static_cast<size_t>(wrote);
  }
  return Status::OK();
}

Result<Socket> ListenTcp(const std::string& host, uint16_t port,
                         int backlog) {
  ASAP_ASSIGN_OR_RETURN(sockaddr_in addr, TcpAddress(host, port));
  ASAP_ASSIGN_OR_RETURN(Socket sock, MakeSocket(AF_INET, "socket(tcp)"));
  const int one = 1;
  ::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(sock.fd(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    return Status::IOError(Errno("bind " + host + ":" + std::to_string(port)));
  }
  if (::listen(sock.fd(), backlog) < 0) {
    return Status::IOError(Errno("listen"));
  }
  return sock;
}

Result<uint16_t> LocalPort(const Socket& listener) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(listener.fd(), reinterpret_cast<sockaddr*>(&addr),
                    &len) < 0) {
    return Status::IOError(Errno("getsockname"));
  }
  return static_cast<uint16_t>(ntohs(addr.sin_port));
}

Result<Socket> ListenUds(const std::string& path, int backlog) {
  ASAP_ASSIGN_OR_RETURN(sockaddr_un addr, UdsAddress(path));
  ASAP_ASSIGN_OR_RETURN(Socket sock, MakeSocket(AF_UNIX, "socket(unix)"));
  // Remove a stale socket file from a previous run — but only a
  // socket: refusing anything else keeps a mistyped path from
  // deleting an arbitrary file.
  struct stat st;
  if (::lstat(path.c_str(), &st) == 0) {
    if (!S_ISSOCK(st.st_mode)) {
      return Status::AlreadyExists(path + " exists and is not a socket");
    }
    ::unlink(path.c_str());
  }
  if (::bind(sock.fd(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    return Status::IOError(Errno("bind " + path));
  }
  if (::listen(sock.fd(), backlog) < 0) {
    return Status::IOError(Errno("listen " + path));
  }
  return sock;
}

Result<Socket> ConnectTcp(const std::string& host, uint16_t port) {
  ASAP_ASSIGN_OR_RETURN(sockaddr_in addr, TcpAddress(host, port));
  ASAP_ASSIGN_OR_RETURN(Socket sock, MakeSocket(AF_INET, "socket(tcp)"));
  if (::connect(sock.fd(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    return Status::IOError(
        Errno("connect " + host + ":" + std::to_string(port)));
  }
  return sock;
}

Result<Socket> ConnectUds(const std::string& path) {
  ASAP_ASSIGN_OR_RETURN(sockaddr_un addr, UdsAddress(path));
  ASAP_ASSIGN_OR_RETURN(Socket sock, MakeSocket(AF_UNIX, "socket(unix)"));
  if (::connect(sock.fd(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    return Status::IOError(Errno("connect " + path));
  }
  return sock;
}

}  // namespace net
}  // namespace asap
