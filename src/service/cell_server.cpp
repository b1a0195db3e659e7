#include "service/cell_server.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

#include "common/check.hpp"
#include "obs/metrics.hpp"
#include "service/binary_protocol.hpp"

namespace prvm {

namespace {

constexpr std::size_t kRecvBytes = 64 * 1024;
/// Accept back-off after fd exhaustion, unless a connection closes first.
constexpr std::uint64_t kAcceptRetryMs = 20;

std::uint64_t now_ms() { return obs::now_ns() / 1000000; }

}  // namespace

struct CellConnection {
  explicit CellConnection(int socket, std::size_t max_frame)
      : fd(socket), lines(max_frame), frames(max_frame) {}

  enum class Protocol : std::uint8_t { kSniffing, kJson, kBinary };

  int fd = -1;                 ///< -1 once closed (the object outlives it while owed responses)
  Protocol protocol = Protocol::kSniffing;
  std::string prefix;          ///< first bytes, until the protocol is known
  LineBuffer lines;
  BinaryFrameBuffer frames;
  BinaryStringTable types;
  std::string out;             ///< encoded responses not yet taken by the kernel
  std::size_t out_sent = 0;    ///< prefix of `out` already sent
  std::size_t out_responses = 0;  ///< responses in `out` since it last drained
  std::size_t inflight = 0;    ///< decoded requests whose response is not encoded yet
  std::uint64_t recv_ns = 0;   ///< clock at the last recv: queue-wait start of its frames
  std::uint32_t interest = 0;  ///< current epoll mask
  bool in_ready = false;       ///< listed in ready_: buffered bytes may hold frames
  bool dirty = false;          ///< listed in dirty_: output to send
  bool paused = false;         ///< max_pipeline unsent responses: not read or decoded
  bool eof = false;            ///< peer finished sending

  std::size_t unsent() const { return inflight + out_responses; }
  bool output_pending() const { return out_sent < out.size(); }
};

CellServer::CellServer(PlacementService& service, SocketServerConfig config)
    : service_(service), config_(std::move(config)), recv_buf_(new char[kRecvBytes]) {}

CellServer::~CellServer() { stop(); }

void CellServer::start() {
  PRVM_REQUIRE(!started_, "server already started");
  listen_fd_ = open_listener(config_, port_);
  listening_ = true;
  try {
    service_.attach(*this, listen_fd_);
  } catch (...) {
    close_all();
    throw;
  }
  started_ = true;
}

void CellServer::stop() {
  if (!started_) return;
  started_ = false;
  service_.detach(*this);
}

int CellServer::timeout_ms() const {
  if (listening_ || listen_fd_ < 0) return -1;
  const std::uint64_t now = now_ms();
  return accept_retry_ms_ > now ? static_cast<int>(accept_retry_ms_ - now) : 0;
}

void CellServer::rearm_listener() {
  if (listening_ || listen_fd_ < 0) return;
  ::epoll_event event{};
  event.events = EPOLLIN;
  event.data.ptr = this;
  if (::epoll_ctl(service_.epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &event) == 0) listening_ = true;
}

void CellServer::on_event(void* tag, std::uint32_t events) {
  if (tag == this) {
    accept_ready();
    return;
  }
  auto* connection = static_cast<CellConnection*>(tag);
  if (connection->fd < 0) return;
  if ((events & EPOLLOUT) != 0) try_send(connection);
  if (connection->fd >= 0 && (events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) {
    read_ready(connection);
  }
  // A hang-up is reported whatever the interest mask: once nothing more
  // will be read, nobody is left to take the output either.
  if (connection->fd >= 0 && (events & (EPOLLHUP | EPOLLERR)) != 0 &&
      (connection->eof || connection->paused)) {
    close_fd(connection);
  }
}

void CellServer::accept_ready() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS || errno == ENOMEM) {
        // Out of descriptors: stop polling the listener (it would report
        // readable forever) until a connection closes or the back-off ends.
        ::epoll_ctl(service_.epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
        listening_ = false;
        accept_retry_ms_ = now_ms() + kAcceptRetryMs;
      }
      return;  // EAGAIN: accepted everything pending
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));  // no-op on UDS
    auto connection = std::make_unique<CellConnection>(fd, config_.max_frame);
    connection->interest = EPOLLIN;
    ::epoll_event event{};
    event.events = connection->interest;
    event.data.ptr = connection.get();
    if (::epoll_ctl(service_.epoll_fd_, EPOLL_CTL_ADD, fd, &event) != 0) {
      ::close(fd);
      continue;
    }
    connections_.push_back(std::move(connection));
  }
}

void CellServer::read_ready(CellConnection* connection) {
  // Frames still buffered from an earlier recv are decoded first; the
  // level-triggered event comes back once they are.
  if (connection->in_ready || connection->paused || connection->eof) return;
  const ::ssize_t n = ::recv(connection->fd, recv_buf_.get(), kRecvBytes, 0);
  if (n > 0) {
    connection->recv_ns = obs::now_ns();
    feed(connection, std::string_view(recv_buf_.get(), static_cast<std::size_t>(n)));
    return;
  }
  if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) return;
  // EOF: answer what was already received, then close. A reset or error
  // closes at once; requests already buffered still run, unanswered.
  connection->eof = true;
  sweep_ = true;
  if (n < 0) {
    close_fd(connection);
  } else {
    update_interest(connection);
  }
}

void CellServer::feed(CellConnection* connection, std::string_view bytes) {
  using Protocol = CellConnection::Protocol;
  if (connection->protocol == Protocol::kSniffing) {
    connection->prefix.append(bytes);
    const std::string& prefix = connection->prefix;
    const std::optional<bool> binary = sniff_binary(prefix);
    if (!binary.has_value()) return;
    if (*binary) {
      connection->protocol = Protocol::kBinary;
      connection->frames.feed(std::string_view(prefix).substr(sizeof(kBinaryPreamble)));
    } else {
      connection->protocol = Protocol::kJson;
      connection->lines.feed(prefix);
    }
    connection->prefix = std::string();
  } else if (connection->protocol == Protocol::kBinary) {
    connection->frames.feed(bytes);
  } else {
    connection->lines.feed(bytes);
  }
  mark_ready(connection);
}

void CellServer::mark_ready(CellConnection* connection) {
  if (connection->in_ready) return;
  connection->in_ready = true;
  ready_.push_back(connection);
}

void CellServer::collect(std::vector<PlacementService::Job>& jobs, std::size_t limit) {
  std::size_t next = 0;
  CellConnection* partial = nullptr;
  for (; next < ready_.size() && jobs.size() < limit; ++next) {
    CellConnection* connection = ready_[next];
    if (decode(connection, jobs, limit)) {  // stopped by the limit, frames left
      partial = connection;
      ++next;
      break;
    }
    connection->in_ready = false;
    if (connection->eof) sweep_ = true;
  }
  // Round-robin: the connections that got no turn go first next pass, the
  // one the limit interrupted goes last.
  ready_.erase(ready_.begin(), ready_.begin() + static_cast<std::ptrdiff_t>(next));
  if (partial != nullptr) ready_.push_back(partial);
}

bool CellServer::decode(CellConnection* connection, std::vector<PlacementService::Job>& jobs,
                        std::size_t limit) {
  using Protocol = CellConnection::Protocol;
  const std::size_t max_pipeline = std::max<std::size_t>(1, config_.max_pipeline);
  while (jobs.size() < limit) {
    if (connection->unsent() >= max_pipeline) {
      // Backpressure: leave the rest buffered (and the socket unread)
      // until this client takes its responses.
      connection->paused = true;
      update_interest(connection);
      return false;
    }
    if (connection->protocol == Protocol::kSniffing) return false;
    auto next = connection->protocol == Protocol::kBinary
                    ? next_request(connection->frames, connection->types)
                    : next_request(connection->lines);
    if (!next.has_value()) return false;
    PlacementService::Job& job = jobs.emplace_back();
    job.conn = connection;
    job.decoded_ns = connection->recv_ns;
    if (const auto* error = std::get_if<ProtocolError>(&*next)) {
      job.answered = true;
      job.response = protocol_error_response(*error);
    } else {
      job.request = std::get<Request>(std::move(*next));
    }
    ++connection->inflight;
    peak_unsent_.store(std::max(peak_unsent_.load(std::memory_order_relaxed),
                                connection->unsent()),
                       std::memory_order_relaxed);
  }
  return true;
}

void CellServer::deliver(CellConnection* connection, const Response& response) {
  --connection->inflight;
  if (connection->fd < 0) {  // closed: the response has nowhere to go
    sweep_ = true;
    return;
  }
  if (connection->protocol == CellConnection::Protocol::kBinary) {
    encode_binary_response_into(response, connection->out);
  } else {
    encode_response_into(response, connection->out);
  }
  ++connection->out_responses;
  if (!connection->dirty) {
    connection->dirty = true;
    dirty_.push_back(connection);
  }
}

void CellServer::try_send(CellConnection* connection) {
  while (connection->output_pending()) {
    ::iovec iov{};
    iov.iov_base = connection->out.data() + connection->out_sent;
    iov.iov_len = connection->out.size() - connection->out_sent;
    ::msghdr msg{};
    msg.msg_iov = &iov;
    msg.msg_iovlen = 1;
    const ::ssize_t n = ::sendmsg(connection->fd, &msg, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      connection->out_sent += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;  // EPOLLOUT resumes it
    } else {
      close_fd(connection);  // peer gone
      return;
    }
  }
  if (!connection->output_pending()) {
    connection->out.clear();
    connection->out_sent = 0;
    connection->out_responses = 0;
    if (connection->paused &&
        connection->unsent() < std::max<std::size_t>(1, config_.max_pipeline)) {
      connection->paused = false;
      mark_ready(connection);  // frames may be buffered already
    }
  }
  update_interest(connection);
}

void CellServer::update_interest(CellConnection* connection) {
  if (connection->fd < 0) return;
  const std::uint32_t want = (connection->eof || connection->paused ? 0u : EPOLLIN) |
                             (connection->output_pending() ? EPOLLOUT : 0u);
  if (want == connection->interest) return;
  ::epoll_event event{};
  event.events = want;
  event.data.ptr = connection;
  ::epoll_ctl(service_.epoll_fd_, EPOLL_CTL_MOD, connection->fd, &event);
  connection->interest = want;
}

void CellServer::close_fd(CellConnection* connection) {
  if (connection->fd < 0) return;
  // Explicitly, not via close(): a descriptor duplicated into a forked child
  // would otherwise keep reporting events for a freed connection.
  ::epoll_ctl(service_.epoll_fd_, EPOLL_CTL_DEL, connection->fd, nullptr);
  ::close(connection->fd);
  connection->fd = -1;
  connection->out.clear();
  connection->out_sent = 0;
  connection->out_responses = 0;
  sweep_ = true;
  freed_fd_ = true;
}

void CellServer::send_pending() {
  for (CellConnection* connection : dirty_) {
    connection->dirty = false;
    if (connection->fd >= 0) try_send(connection);
    if (connection->eof) sweep_ = true;
  }
  dirty_.clear();
  if (sweep_) sweep();
  if (freed_fd_) {
    freed_fd_ = false;
    rearm_listener();  // a descriptor just came free
  } else if (!listening_ && listen_fd_ >= 0 && now_ms() >= accept_retry_ms_) {
    rearm_listener();
  }
}

void CellServer::sweep() {
  // Close finished connections (EOF seen, every response sent) and free the
  // closed ones nothing references any more.
  for (std::size_t i = 0; i < connections_.size();) {
    CellConnection* connection = connections_[i].get();
    const bool settled =
        connection->inflight == 0 && !connection->in_ready && !connection->output_pending();
    if (connection->eof && settled) close_fd(connection);
    if (connection->fd < 0 && settled) {
      connections_[i] = std::move(connections_.back());
      connections_.pop_back();
      continue;
    }
    ++i;
  }
  sweep_ = false;
}

void CellServer::close_all() {
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    listening_ = false;
    if (!config_.unix_path.empty()) ::unlink(config_.unix_path.c_str());
  }
  for (auto& connection : connections_) {
    if (connection->fd >= 0) ::close(connection->fd);
  }
  connections_.clear();
  ready_.clear();
  dirty_.clear();
}

}  // namespace prvm
