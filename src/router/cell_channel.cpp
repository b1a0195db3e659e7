#include "router/cell_channel.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <stdexcept>

#include "service/binary_protocol.hpp"
#include "service/socket_server.hpp"

namespace prvm {

SocketCellChannel::SocketCellChannel(const std::string& spec)
    : fd_(connect_endpoint(spec)), peer_(spec) {
  if (fd_ < 0) throw std::runtime_error("cannot connect to cell at " + spec);
  // First bytes on the channel: the PRVB1 preamble the cell sniffs. A send
  // failure here is deliberately ignored — the very next submit notices the
  // dead connection and fails structurally.
  ::send(fd_, kBinaryPreamble, sizeof(kBinaryPreamble), MSG_NOSIGNAL);
  reader_ = std::thread([this] { reader_loop(); });
}

SocketCellChannel::~SocketCellChannel() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!down_) {
      down_ = true;
      down_detail_ = "channel closed";
    }
  }
  // shutdown() unblocks the reader's recv; close follows the join so the fd
  // number cannot be reused under the reader.
  ::shutdown(fd_, SHUT_RDWR);
  if (reader_.joinable()) reader_.join();
  ::close(fd_);
}

bool SocketCellChannel::connected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !down_;
}

std::future<Response> SocketCellChannel::submit(Request request) {
  std::promise<Response> promise;
  std::future<Response> future = promise.get_future();

  std::unique_lock<std::mutex> lock(mu_);
  if (down_) {
    lock.unlock();
    Response response;
    response.ok = false;
    response.op = to_string(request.op);
    response.vm = request.vm_id;
    response.error = kCellUnreachable;
    response.message = "cell " + peer_ + " is unreachable: " + down_detail_;
    promise.set_value(std::move(response));
    return future;
  }
  // Encode, promise enqueue and send all happen under one lock so the byte
  // stream and the promise FIFO agree on order across submitting threads.
  // The buffer is a member: past the first few requests its capacity covers
  // every frame, so a warm submit performs zero allocations.
  encode_buf_.clear();
  const auto send_buffer = [&]() -> bool {
    std::size_t written = 0;
    while (written < encode_buf_.size()) {
      const ::ssize_t n =
          ::send(fd_, encode_buf_.data() + written, encode_buf_.size() - written, MSG_NOSIGNAL);
      if (n <= 0) return false;
      written += static_cast<std::size_t>(n);
    }
    return true;
  };
  std::optional<std::uint16_t> slot;
  if (request.op == RequestOp::kPlace && !request.vm_type_name.empty()) {
    const auto known = intern_slots_.find(request.vm_type_name);
    if (known != intern_slots_.end()) {
      slot = known->second;
    } else if (intern_slots_.size() < BinaryStringTable::kMaxSlots &&
               intern_bytes_ + request.vm_type_name.size() <= BinaryStringTable::kMaxBytes &&
               append_intern_frame(static_cast<std::uint16_t>(intern_slots_.size()),
                                   request.vm_type_name, encode_buf_)) {
      // First sight of this type name: bind it in the cell's string table
      // with an intern frame riding the same send as the request.
      slot = static_cast<std::uint16_t>(intern_slots_.size());
      intern_slots_.emplace(request.vm_type_name, *slot);
      intern_bytes_ += request.vm_type_name.size();
    }
    // Table full (or name beyond the wire limit): the name travels inline.
  }
  if (!encode_binary_request_into(request, encode_buf_, slot)) {
    // The request cannot be represented on the wire (a string field beyond
    // its length prefix): refuse it in its own slot without consuming a
    // response slot. The buffer holds at most an intern frame for a slot
    // already recorded above — flush it so the cell's table stays in sync.
    if (!send_buffer()) fail_all_locked("send failed");
    lock.unlock();
    Response response;
    response.ok = false;
    response.op = to_string(request.op);
    response.vm = request.vm_id;
    response.error = "bad_field";
    response.message = "request exceeds binary wire-format limits";
    promise.set_value(std::move(response));
    return future;
  }
  pending_.push_back(std::move(promise));
  if (!send_buffer()) fail_all_locked("send failed");
  return future;
}

void SocketCellChannel::fail_all_locked(const std::string& detail) {
  down_ = true;
  down_detail_ = detail;
  std::deque<std::promise<Response>> orphaned;
  orphaned.swap(pending_);
  for (std::promise<Response>& promise : orphaned) {
    Response response;
    response.ok = false;
    response.error = kCellUnreachable;
    response.message = "cell " + peer_ + " is unreachable: " + detail;
    promise.set_value(std::move(response));
  }
}

FailoverCellChannel::FailoverCellChannel(Config config) : config_(std::move(config)) {
  if (config_.endpoints.empty()) throw std::runtime_error("failover channel needs endpoints");
  if (config_.metrics != nullptr) {
    failovers_ = &config_.metrics->counter("prvm_router_failovers_total");
    promotions_ = &config_.metrics->counter("prvm_router_promotions_total");
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::string& spec : config_.endpoints) {
    if (auto channel = qualify(spec)) {
      active_ = std::move(channel);
      active_spec_ = spec;
      ever_connected_ = true;
      break;
    }
  }
  if (active_ == nullptr) {
    throw std::runtime_error("no reachable endpoint among " +
                             std::to_string(config_.endpoints.size()) + " for this cell");
  }
}

bool FailoverCellChannel::connected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return active_ != nullptr && active_->connected();
}

std::string FailoverCellChannel::active_endpoint() const {
  std::lock_guard<std::mutex> lock(mu_);
  return active_ != nullptr && active_->connected() ? active_spec_ : std::string();
}

std::shared_ptr<SocketCellChannel> FailoverCellChannel::qualify(const std::string& spec) {
  std::shared_ptr<SocketCellChannel> channel;
  try {
    channel = std::make_shared<SocketCellChannel>(spec);
  } catch (const std::exception&) {
    return nullptr;
  }

  Request health;
  health.op = RequestOp::kHealth;
  const Response status = channel->submit(health).get();
  if (!status.ok) return nullptr;
  std::string role;
  for (const auto& [key, value] : status.extra) {
    if (key == "role") role = value;
  }
  if (role != "\"follower\"") return channel;  // leader / single / cell: serve as is

  // The preferred endpoints ahead of this one are gone — promote the
  // follower so the cell keeps accepting writes (manual failover uses the
  // same op through prvm_ctl).
  Request promote;
  promote.op = RequestOp::kPromote;
  const Response promoted = channel->submit(promote).get();
  // not_follower means someone else promoted it between the two calls —
  // equally good news.
  if (!promoted.ok && promoted.error != "not_follower") return nullptr;
  if (promoted.ok && promotions_ != nullptr) promotions_->inc();
  return channel;
}

std::shared_ptr<SocketCellChannel> FailoverCellChannel::acquire() {
  std::lock_guard<std::mutex> lock(mu_);
  if (active_ != nullptr && active_->connected()) return active_;
  for (const std::string& spec : config_.endpoints) {
    if (auto channel = qualify(spec)) {
      if (ever_connected_ && failovers_ != nullptr) failovers_->inc();
      active_ = std::move(channel);
      active_spec_ = spec;
      ever_connected_ = true;
      return active_;
    }
  }
  active_.reset();
  active_spec_.clear();
  return nullptr;
}

std::future<Response> FailoverCellChannel::submit(Request request) {
  if (const std::shared_ptr<SocketCellChannel> channel = acquire()) {
    return channel->submit(std::move(request));
  }
  std::promise<Response> promise;
  Response response;
  response.ok = false;
  response.op = to_string(request.op);
  response.vm = request.vm_id;
  response.error = kCellUnreachable;
  response.message = "no reachable endpoint among " +
                     std::to_string(config_.endpoints.size()) + " for this cell";
  promise.set_value(std::move(response));
  return promise.get_future();
}

void SocketCellChannel::reader_loop() {
  // Responses are not bounded by the request frame cap (stats/metrics
  // extras can be large); the server guarantees every encoded response
  // stays under kMaxBinaryResponseBytes — substituting a structured
  // oversized_response error otherwise — so a big-but-valid response can
  // never look like damage here.
  BinaryFrameBuffer frames(kMaxBinaryResponseBytes);
  char buf[16 * 1024];
  while (true) {
    const ::ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n <= 0) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!down_) fail_all_locked("connection closed by cell");
      return;
    }
    frames.feed(std::string_view(buf, static_cast<std::size_t>(n)));
    while (const auto frame = frames.next()) {
      // The response stream is CRC-framed by our own server; any damage or
      // non-response frame means the FIFO correspondence is gone, so the
      // whole connection is condemned.
      if (frame->status != BinaryFrameBuffer::Status::kOk ||
          frame->kind != BinaryFrameKind::kResponse) {
        std::lock_guard<std::mutex> lock(mu_);
        fail_all_locked("corrupt response stream from cell");
        return;
      }
      std::string error;
      std::optional<Response> response = parse_binary_response(frame->payload, &error);
      std::promise<Response> promise;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (pending_.empty()) {
          fail_all_locked("unsolicited response from cell");
          return;
        }
        promise = std::move(pending_.front());
        pending_.pop_front();
      }
      if (response.has_value()) {
        promise.set_value(std::move(*response));
      } else {
        Response bad;
        bad.ok = false;
        bad.error = kCellUnreachable;
        bad.message = "malformed response from cell " + peer_ + ": " + error;
        promise.set_value(std::move(bad));
      }
    }
  }
}

}  // namespace prvm
