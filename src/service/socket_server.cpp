#include "service/socket_server.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <filesystem>
#include <optional>

#include "common/check.hpp"
#include "service/binary_protocol.hpp"

namespace prvm {

struct SocketServer::Connection {
  int fd = -1;  ///< closed by the reader when it finishes (under the server's mu_)
  std::atomic<bool> finished{false};  ///< both threads done; join and free
  std::thread reader;
  std::thread writer;
  /// Wire protocol, set by the reader's preamble sniff before the first
  /// response is enqueued; the writer picks its encoder off this.
  std::atomic<bool> binary{false};

  // Bounded in-order pipeline of response futures, reader -> writer.
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::future<Response>> pipeline;
  bool closed = false;  ///< reader finished; writer drains and exits
};

namespace {

/// Vectored write of a whole response burst: sendmsg is writev with
/// MSG_NOSIGNAL, so a dead peer surfaces as an error instead of SIGPIPE.
/// Advances the iovec array across partial writes.
void writev_all(int fd, ::iovec* iov, std::size_t count) {
  while (count > 0) {
    ::msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = count;
    const ::ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n <= 0) return;  // peer went away; reader will notice EOF too
    std::size_t left = static_cast<std::size_t>(n);
    while (count > 0 && left >= iov->iov_len) {
      left -= iov->iov_len;
      ++iov;
      --count;
    }
    if (count > 0 && left > 0) {
      iov->iov_base = static_cast<char*>(iov->iov_base) + left;
      iov->iov_len -= left;
    }
  }
}

std::future<Response> ready_response(Response response) {
  std::promise<Response> promise;
  promise.set_value(std::move(response));
  return promise.get_future();
}

}  // namespace

SocketServer::SocketServer(RequestSink& service, SocketServerConfig config)
    : service_(service), config_(std::move(config)) {}

SocketServer::~SocketServer() { stop(); }

int open_listener(const SocketServerConfig& config, int& port) {
  port = -1;
  int fd = -1;
  // Closes the half-built listener before reporting, so a failed start
  // leaks no descriptor.
  const auto require = [&fd](bool ok, const std::string& message) {
    if (ok) return;
    if (fd >= 0) ::close(fd);
    PRVM_REQUIRE(false, message);
  };
  if (!config.unix_path.empty()) {
    fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    require(fd >= 0, "cannot create unix socket");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    require(config.unix_path.size() < sizeof(addr.sun_path), "unix socket path too long");
    std::strncpy(addr.sun_path, config.unix_path.c_str(), sizeof(addr.sun_path) - 1);
    ::unlink(config.unix_path.c_str());  // stale socket from a previous run
    require(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
            "cannot bind " + config.unix_path);
  } else {
    require(config.tcp_port >= 0, "no unix path and no TCP port configured");
    require(config.tcp_port <= 0xFFFF, "bad TCP port " + std::to_string(config.tcp_port));
    fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    require(fd >= 0, "cannot create TCP socket");
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(config.tcp_port));
    require(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
            "cannot bind TCP port " + std::to_string(config.tcp_port));
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len);
    port = ntohs(bound.sin_port);
  }
  require(::listen(fd, config.backlog) == 0, "listen failed");
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

std::optional<int> parse_port(std::string_view text) {
  unsigned port = 0;
  const char* end = text.data() + text.size();
  // Unsigned from_chars takes no sign or space; five digits cannot overflow.
  if (text.empty() || text.size() > 5 ||
      std::from_chars(text.data(), end, port).ptr != end || port > 0xFFFF) {
    return std::nullopt;
  }
  return static_cast<int>(port);
}

std::optional<Endpoint> parse_endpoint(std::string_view spec) {
  Endpoint endpoint;
  if (spec.rfind("unix:", 0) == 0) {
    endpoint.unix_path = spec.substr(5);
    if (endpoint.unix_path.empty() ||
        endpoint.unix_path.size() >= sizeof(sockaddr_un::sun_path)) {
      return std::nullopt;
    }
    return endpoint;
  }
  if (spec.rfind("tcp:", 0) == 0) {
    const std::optional<int> port = parse_port(spec.substr(4));
    if (!port.has_value() || *port == 0) return std::nullopt;
    endpoint.tcp_port = *port;
    return endpoint;
  }
  return std::nullopt;
}

int connect_endpoint(std::string_view spec) {
  const std::optional<Endpoint> endpoint = parse_endpoint(spec);
  if (!endpoint.has_value()) return -1;
  const bool tcp = endpoint->unix_path.empty();
  const int fd = ::socket(tcp ? AF_INET : AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_un unix_addr{};
  sockaddr_in tcp_addr{};
  const sockaddr* addr = nullptr;
  socklen_t addr_len = 0;
  if (tcp) {
    tcp_addr.sin_family = AF_INET;
    tcp_addr.sin_port = htons(static_cast<std::uint16_t>(endpoint->tcp_port));
    // Loopback-only, like every listener here: the deployment story is
    // daemons on one box (or behind a private mesh), not the open internet.
    tcp_addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr = reinterpret_cast<const sockaddr*>(&tcp_addr);
    addr_len = sizeof(tcp_addr);
  } else {
    unix_addr.sun_family = AF_UNIX;
    std::memcpy(unix_addr.sun_path, endpoint->unix_path.c_str(), endpoint->unix_path.size() + 1);
    addr = reinterpret_cast<const sockaddr*>(&unix_addr);
    addr_len = sizeof(unix_addr);
  }
  if (::connect(fd, addr, addr_len) != 0) {
    ::close(fd);
    return -1;
  }
  if (tcp) {
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  return fd;
}

void SocketServer::start() {
  PRVM_REQUIRE(listen_fd_ < 0, "server already started");
  listen_fd_ = open_listener(config_, port_);
  // The accept loop blocks in poll(); accept itself stays non-blocking so a
  // connection that vanished between the two cannot wedge it.
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void SocketServer::accept_loop() {
  const int listen_fd = listen_fd_;
  while (true) {
    ::pollfd pfd{};
    pfd.fd = listen_fd;
    pfd.events = POLLIN;
    // stop() wakes the poll by shutting the listener down; the timeout is a
    // backstop for platforms where that does not wake it.
    const int ready = ::poll(&pfd, 1, 1000);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) return;
    }
    if (ready == 0) continue;
    if (ready < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if ((pfd.revents & (POLLNVAL | POLLERR)) != 0) return;  // listener closed
    const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      // Fd exhaustion and aborted handshakes are transient: back off and
      // keep serving. Only a closed listener ends the loop.
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS || errno == ENOMEM) {
        {
          std::lock_guard<std::mutex> lock(mu_);
          reap_finished();
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      if (errno == EINTR || errno == ECONNABORTED || errno == EAGAIN ||
          errno == EWOULDBLOCK || errno == EPROTO) {
        continue;
      }
      return;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));  // no-op on UDS

    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      ::close(fd);
      return;
    }
    reap_finished();
    auto connection = std::make_unique<Connection>();
    Connection* raw = connection.get();
    raw->fd = fd;
    connections_.push_back(std::move(connection));
    raw->reader = std::thread([this, raw] { serve_connection(raw); });
  }
}

void SocketServer::reap_finished() {
  for (std::size_t i = 0; i < connections_.size();) {
    Connection* connection = connections_[i].get();
    if (!connection->finished.load(std::memory_order_acquire)) {
      ++i;
      continue;
    }
    // The reader joined its writer and closed the fd before flagging.
    if (connection->reader.joinable()) connection->reader.join();
    connections_[i] = std::move(connections_.back());
    connections_.pop_back();
  }
}

void SocketServer::enqueue(Connection* connection, std::future<Response> response) {
  const std::size_t max_pipeline = std::max<std::size_t>(1, config_.max_pipeline);
  std::unique_lock<std::mutex> lock(connection->mu);
  connection->cv.wait(lock, [&] { return connection->pipeline.size() < max_pipeline; });
  connection->pipeline.push_back(std::move(response));
  connection->cv.notify_all();
}

void SocketServer::serve_connection(Connection* connection) {
  connection->writer = std::thread([connection] {
    // Gather a burst of responses and ship it with one vectored sendmsg.
    // Each response encodes into its own reused buffer from a fixed pool;
    // the iovec array hands the whole burst to the kernel at once, so under
    // pipelined load N per-response syscalls (and N allocations) collapse
    // into a single syscall and zero steady-state allocations.
    constexpr std::size_t kMaxBurstBytes = 256 * 1024;
    constexpr std::size_t kMaxBurstResponses = 64;
    std::vector<std::string> bufs(kMaxBurstResponses);
    std::vector<::iovec> iov(kMaxBurstResponses);
    while (true) {
      std::future<Response> next;
      {
        std::unique_lock<std::mutex> lock(connection->mu);
        connection->cv.wait(lock, [connection] {
          return !connection->pipeline.empty() || connection->closed;
        });
        if (connection->pipeline.empty()) return;  // closed and drained
        next = std::move(connection->pipeline.front());
        connection->pipeline.pop_front();
      }
      connection->cv.notify_all();  // reader may be blocked on the cap
      const bool binary = connection->binary.load(std::memory_order_relaxed);
      std::size_t count = 0;
      std::size_t bytes = 0;
      const auto gather = [&](Response response) {
        std::string& buf = bufs[count];
        buf.clear();
        if (binary) {
          encode_binary_response_into(response, buf);
        } else {
          encode_response_into(response, buf);
        }
        bytes += buf.size();
        ++count;
      };
      gather(next.get());
      // Opportunistically coalesce responses that are already resolved; the
      // moment one would block (or the burst is full), send.
      while (count < kMaxBurstResponses && bytes < kMaxBurstBytes) {
        std::future<Response> more;
        {
          std::lock_guard<std::mutex> lock(connection->mu);
          if (connection->pipeline.empty()) break;
          if (connection->pipeline.front().wait_for(std::chrono::seconds(0)) !=
              std::future_status::ready) {
            break;
          }
          more = std::move(connection->pipeline.front());
          connection->pipeline.pop_front();
        }
        connection->cv.notify_all();
        gather(more.get());
      }
      for (std::size_t i = 0; i < count; ++i) {
        iov[i].iov_base = bufs[i].data();
        iov[i].iov_len = bufs[i].size();
      }
      writev_all(connection->fd, iov.data(), count);
    }
  });

  // Sniff the protocol off the connection's first bytes.
  char buf[64 * 1024];
  std::string prefix;
  std::optional<bool> binary;
  while (!binary.has_value()) {
    const ::ssize_t n = ::recv(connection->fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    prefix.append(buf, static_cast<std::size_t>(n));
    binary = sniff_binary(prefix);
  }
  if (binary.has_value()) {
    if (*binary) prefix.erase(0, sizeof(kBinaryPreamble));
    connection->binary.store(*binary, std::memory_order_relaxed);
    serve_requests(connection, prefix, *binary);
  }

  {
    std::lock_guard<std::mutex> lock(connection->mu);
    connection->closed = true;
  }
  connection->cv.notify_all();
  connection->writer.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    ::close(connection->fd);
    connection->fd = -1;
  }
  connection->finished.store(true, std::memory_order_release);
}

void SocketServer::serve_requests(Connection* connection, std::string_view initial,
                                  bool binary) {
  LineBuffer lines(config_.max_frame);
  BinaryFrameBuffer frames(config_.max_frame);
  BinaryStringTable types;
  char buf[64 * 1024];
  std::string_view chunk = initial;
  while (true) {
    if (binary) {
      frames.feed(chunk);
    } else {
      lines.feed(chunk);
    }
    while (auto next = binary ? next_request(frames, types) : next_request(lines)) {
      if (const auto* error = std::get_if<ProtocolError>(&*next)) {
        enqueue(connection, ready_response(protocol_error_response(*error)));
      } else {
        enqueue(connection, service_.submit(std::get<Request>(std::move(*next))));
      }
    }
    const ::ssize_t n = ::recv(connection->fd, buf, sizeof(buf), 0);
    if (n <= 0) return;
    chunk = std::string_view(buf, static_cast<std::size_t>(n));
  }
}

void SocketServer::stop() {
  std::vector<std::unique_ptr<Connection>> connections;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ || listen_fd_ < 0) return;
    stopping_ = true;
    // Unblocks every reader's recv; fds close as their readers finish
    // (under mu_, so none closes under this shutdown).
    for (auto& connection : connections_) {
      if (connection->fd >= 0) ::shutdown(connection->fd, SHUT_RDWR);
    }
    connections.swap(connections_);
  }
  ::shutdown(listen_fd_, SHUT_RDWR);  // wakes the accept loop's poll
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  for (auto& connection : connections) {
    if (connection->reader.joinable()) connection->reader.join();
  }
  if (!config_.unix_path.empty()) ::unlink(config_.unix_path.c_str());
}

}  // namespace prvm
