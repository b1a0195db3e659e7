#include "service/replication.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <ctime>

#include "service/socket_server.hpp"

namespace prvm {

namespace {

/// One repl_snap or repl_frames request carries at most this many raw
/// bytes, well under the follower's kMaxReplFrameBytes frame cap.
constexpr std::size_t kChunkBytes = 1024 * 1024;

std::uint64_t now_ms() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000 +
         static_cast<std::uint64_t>(ts.tv_nsec) / 1000000;
}

/// The follower's op_seq, carried in the "op_seq" extra of repl responses.
std::optional<std::uint64_t> response_op_seq(const Response& response) {
  for (const auto& [key, encoded] : response.extra) {
    if (key != "op_seq") continue;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(encoded.c_str(), &end, 10);
    if (end != encoded.c_str() && *end == '\0') return static_cast<std::uint64_t>(v);
  }
  return std::nullopt;
}

/// Splits a concatenation of CRC-framed records at frame boundaries into
/// chunks of at most `max_bytes` raw bytes; also counts the frames.
std::vector<std::string_view> split_frames(std::string_view frames, std::size_t max_bytes,
                                           std::size_t* frame_count) {
  std::vector<std::string_view> chunks;
  std::size_t chunk_start = 0;
  std::size_t pos = 0;
  while (pos + 8 <= frames.size()) {
    std::uint32_t length = 0;
    for (int i = 0; i < 4; ++i) {
      length |= static_cast<std::uint32_t>(static_cast<unsigned char>(frames[pos + i])) << (8 * i);
    }
    const std::size_t frame_end = pos + 8 + length;
    if (frame_end > frames.size()) break;  // malformed; sender never produces this
    if (frame_count != nullptr) ++*frame_count;
    if (frame_end - chunk_start > max_bytes && pos > chunk_start) {
      chunks.push_back(frames.substr(chunk_start, pos - chunk_start));
      chunk_start = pos;
    }
    pos = frame_end;
  }
  if (pos > chunk_start) chunks.push_back(frames.substr(chunk_start, pos - chunk_start));
  return chunks;
}

}  // namespace

ReplicationSender::ReplicationSender(std::vector<std::string> endpoints, obs::Registry* registry,
                                     std::uint64_t ack_timeout_ms)
    : ack_timeout_ms_(ack_timeout_ms) {
  links_.reserve(endpoints.size());
  for (std::string& spec : endpoints) {
    Link link;
    link.spec = std::move(spec);
    links_.push_back(std::move(link));
  }
  if (registry != nullptr) {
    frames_total_ = &registry->counter("prvm_repl_frames_total");
    bytes_total_ = &registry->counter("prvm_repl_bytes_total");
    acks_total_ = &registry->counter("prvm_repl_acks_total");
    snapshots_total_ = &registry->counter("prvm_repl_snapshots_total");
    link_failures_ = &registry->counter("prvm_repl_link_failures_total");
    lag_bytes_ = &registry->gauge("prvm_repl_lag_bytes");
  }
}

ReplicationSender::~ReplicationSender() {
  for (Link& link : links_) {
    if (link.fd >= 0) ::close(link.fd);
  }
}

std::size_t ReplicationSender::streaming_links() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const Link& link : links_) n += link.state == Link::State::kStreaming ? 1 : 0;
  return n;
}

bool ReplicationSender::connect_link(Link& link) {
  const int fd = connect_endpoint(link.spec);
  if (fd < 0) return false;
  link.fd = fd;
  link.outstanding = 0;
  link.pending_bytes = 0;
  link.inbox = BinaryFrameBuffer(kMaxBinaryResponseBytes);
  if (!send_bytes(link, std::string_view(kBinaryPreamble, sizeof(kBinaryPreamble)))) {
    close_link(link, true);
    return false;
  }
  return true;
}

void ReplicationSender::close_link(Link& link, bool failure) {
  if (link.fd >= 0) {
    ::close(link.fd);
    link.fd = -1;
  }
  link.state = Link::State::kDown;
  link.outstanding = 0;
  link.pending_bytes = 0;
  if (failure && link_failures_ != nullptr) link_failures_->inc();
}

bool ReplicationSender::send_request(Link& link, const Request& request) {
  out_.clear();
  if (!encode_binary_request_into(request, out_) || !send_bytes(link, out_)) {
    close_link(link, true);
    return false;
  }
  ++link.outstanding;
  return true;
}

bool ReplicationSender::send_bytes(Link& link, std::string_view bytes) {
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ::ssize_t n =
        ::send(link.fd, bytes.data() + written, bytes.size() - written, MSG_NOSIGNAL);
    if (n <= 0) return false;
    written += static_cast<std::size_t>(n);
  }
  return true;
}

bool ReplicationSender::read_response(Link& link, std::uint64_t wait_ms) {
  const std::uint64_t deadline = now_ms() + wait_ms;
  char buf[16 * 1024];
  while (true) {
    // A complete frame may already be buffered from a previous read.
    if (const auto frame = link.inbox.next()) {
      // Damage on the follower's CRC-framed ack stream means the acks can
      // no longer be matched to what was sent: drop the link.
      std::string error;
      const std::optional<Response> response =
          frame->status == BinaryFrameBuffer::Status::kOk &&
                  frame->kind == BinaryFrameKind::kResponse
              ? parse_binary_response(frame->payload, &error)
              : std::nullopt;
      if (!response.has_value()) {
        close_link(link, true);
        return false;
      }
      if (link.outstanding > 0) --link.outstanding;
      if (link.outstanding == 0) link.pending_bytes = 0;
      if (const auto seq = response_op_seq(*response); seq.has_value()) {
        link.acked_seq = std::max(link.acked_seq, *seq);
      }
      if (acks_total_ != nullptr) acks_total_->inc();
      if (!response->ok) {
        // repl_gap, degraded_storage, draining, queue_full: whatever the
        // cause, the follower did not apply this payload — resync with a
        // snapshot once it is willing again.
        link.state = Link::State::kNeedsSnapshot;
        snapshot_needed_.store(true, std::memory_order_relaxed);
      }
      return true;
    }
    const std::uint64_t now = now_ms();
    const int timeout =
        now >= deadline ? 0 : static_cast<int>(std::min<std::uint64_t>(deadline - now, 1u << 30));
    pollfd pfd{link.fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, timeout);
    if (ready <= 0) return false;  // timeout (or poll error): caller keeps waiting or gives up
    const ::ssize_t n = ::recv(link.fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      close_link(link, true);
      return false;
    }
    link.inbox.feed(std::string_view(buf, static_cast<std::size_t>(n)));
  }
}

bool ReplicationSender::handshake(Link& link, std::uint64_t leader_seq) {
  Request hello;
  hello.op = RequestOp::kReplHello;
  hello.seq = leader_seq;
  if (!send_request(link, hello)) return false;
  link.acked_seq = 0;
  if (!read_response(link, ack_timeout_ms_)) {
    close_link(link, true);
    return false;
  }
  if (link.acked_seq == leader_seq) {
    link.state = Link::State::kStreaming;
  } else if (link.acked_seq < leader_seq) {
    link.state = Link::State::kNeedsSnapshot;
    snapshot_needed_.store(true, std::memory_order_relaxed);
  } else {
    // The follower is AHEAD of this leader: this node's history is stale
    // (e.g. an old leader rejoining). Refusing to stream is the safe move.
    close_link(link, true);
    return false;
  }
  return true;
}

void ReplicationSender::connect_all(std::uint64_t leader_seq) {
  const std::lock_guard<std::mutex> lock(mu_);
  for (Link& link : links_) {
    if (link.state != Link::State::kDown) continue;
    if (!connect_link(link)) continue;
    handshake(link, leader_seq);
  }
}

void ReplicationSender::send_snapshot(const std::string& blob, std::uint64_t snap_seq) {
  const std::lock_guard<std::mutex> lock(mu_);
  for (Link& link : links_) {
    if (link.state != Link::State::kNeedsSnapshot) continue;
    // A fresh socket per catch-up keeps the chunk/ack exchange strictly
    // alternating — no stale frame acks interleave.
    close_link(link, false);
    if (!connect_link(link)) continue;
    if (!handshake(link, snap_seq)) continue;
    if (link.state == Link::State::kStreaming) continue;  // already caught up
    bool ok = true;
    for (std::size_t offset = 0; offset < blob.size() && ok; offset += kChunkBytes) {
      Request chunk;
      chunk.op = RequestOp::kReplSnapshot;
      chunk.seq = snap_seq;
      chunk.offset = offset;
      const std::size_t n = std::min(kChunkBytes, blob.size() - offset);
      chunk.eof = offset + n == blob.size();
      chunk.data = blob.substr(offset, n);
      if (!send_request(link, chunk)) {
        ok = false;
        break;
      }
      if (!read_response(link, ack_timeout_ms_) || link.state == Link::State::kDown) {
        ok = false;
        break;
      }
    }
    if (ok && link.acked_seq >= snap_seq) {
      link.state = Link::State::kStreaming;
      if (snapshots_total_ != nullptr) snapshots_total_->inc();
    } else if (link.fd >= 0 && link.state != Link::State::kNeedsSnapshot) {
      close_link(link, true);
    }
  }
  bool still_needed = false;
  for (const Link& link : links_) {
    still_needed |= link.state == Link::State::kNeedsSnapshot;
  }
  snapshot_needed_.store(still_needed, std::memory_order_relaxed);
}

std::size_t ReplicationSender::replicate(const std::string& frames, std::uint64_t last_seq,
                                         bool wait) {
  const std::lock_guard<std::mutex> lock(mu_);
  std::size_t frame_count = 0;
  const std::vector<std::string_view> chunks =
      split_frames(frames, kChunkBytes, &frame_count);
  for (Link& link : links_) {
    if (link.state == Link::State::kDown) {
      // Cheap reconnect attempt each round: a follower that came (back) up
      // rejoins on the next flush without any out-of-band signal.
      if (!connect_link(link)) continue;
      if (!handshake(link, last_seq)) continue;
    }
    if (link.state != Link::State::kStreaming) continue;
    for (const std::string_view chunk : chunks) {
      Request batch;
      batch.op = RequestOp::kReplFrames;
      batch.seq = last_seq;
      batch.data = chunk;
      if (!send_request(link, batch)) break;
      link.pending_bytes += chunk.size();
      if (bytes_total_ != nullptr) bytes_total_->add(chunk.size());
    }
    if (link.state == Link::State::kStreaming && frames_total_ != nullptr && !chunks.empty()) {
      frames_total_->add(frame_count);
    }
  }

  // Drain acks: with `wait`, poll each lagging link until it reaches
  // last_seq or the deadline passes; without, only consume what has
  // already arrived.
  const std::uint64_t deadline = now_ms() + (wait ? ack_timeout_ms_ : 0);
  for (Link& link : links_) {
    if (link.state != Link::State::kStreaming) continue;
    while (link.outstanding > 0 && link.acked_seq < last_seq) {
      const std::uint64_t now = now_ms();
      const std::uint64_t budget = wait && deadline > now ? deadline - now : 0;
      if (!read_response(link, budget)) break;
      if (link.state != Link::State::kStreaming) break;
    }
  }
  update_lag_gauge();
  std::size_t confirmed = 0;
  for (const Link& link : links_) {
    if (link.state == Link::State::kStreaming && link.acked_seq >= last_seq) ++confirmed;
  }
  return confirmed;
}

void ReplicationSender::update_lag_gauge() {
  if (lag_bytes_ == nullptr) return;
  std::size_t lag = 0;
  for (const Link& link : links_) lag += link.pending_bytes;
  lag_bytes_->set(static_cast<std::int64_t>(lag));
}

}  // namespace prvm
