// Thin RAII layer over POSIX stream sockets: TCP (IPv4) and
// Unix-domain listeners, blocking client connects, and the EINTR/
// partial-write-safe send loop. Everything fallible returns
// Status/Result in the library's usual style; nothing here knows
// about the wire protocol.

#ifndef ASAP_NET_SOCKET_H_
#define ASAP_NET_SOCKET_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/result.h"

namespace asap {
namespace net {

/// Owns one file descriptor; move-only.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void Close();
  /// Relinquishes ownership of the fd.
  int Release();

  Status SetNonBlocking();

  /// Disables Nagle's algorithm (TCP_NODELAY). Fails with IOError on
  /// an invalid fd or a non-TCP socket (e.g. Unix-domain).
  Status SetTcpNoDelay();

 private:
  int fd_ = -1;
};

/// Result of one non-blocking accept attempt.
enum class AcceptStatus {
  kAccepted,    // *out holds the new non-blocking connection
  kWouldBlock,  // backlog drained
  kRetry,       // transient (EINTR / ECONNABORTED): call again
  kError,       // hard failure (e.g. EMFILE) — caller must back off
};

/// Accepts one pending connection from a non-blocking listener,
/// using accept4(SOCK_NONBLOCK) where available (one syscall) and
/// falling back to accept + fcntl elsewhere. On kAccepted, *out is
/// the connection socket, already non-blocking.
AcceptStatus AcceptNonBlocking(const Socket& listener, Socket* out);

/// Result of one non-blocking read.
enum class RecvStatus {
  kData,        // >= 1 byte read
  kEof,         // orderly close
  kWouldBlock,  // no data right now
  kError,       // connection-level failure (treat like EOF)
};

/// Reads up to `capacity` bytes; *n receives the byte count on kData.
RecvStatus RecvSome(int fd, char* buffer, size_t capacity, size_t* n);

/// Writes all `n` bytes, looping over partial writes and EINTR.
/// SIGPIPE is suppressed (MSG_NOSIGNAL); a closed peer is an IOError.
Status SendAll(int fd, const char* data, size_t n);

/// Opens a listening IPv4 TCP socket on host:port (port 0 picks an
/// ephemeral port — read it back with LocalPort). SO_REUSEADDR is set
/// and TCP_NODELAY is inherited by accepted connections via the
/// caller's option choice, not here.
Result<Socket> ListenTcp(const std::string& host, uint16_t port, int backlog);

/// The port a TCP listener actually bound (resolves port 0).
Result<uint16_t> LocalPort(const Socket& listener);

/// Opens a listening Unix-domain socket at `path`, unlinking any stale
/// socket file first.
Result<Socket> ListenUds(const std::string& path, int backlog);

/// Blocking client connects (used by WireClient and tests).
Result<Socket> ConnectTcp(const std::string& host, uint16_t port);
Result<Socket> ConnectUds(const std::string& path);

}  // namespace net
}  // namespace asap

#endif  // ASAP_NET_SOCKET_H_
