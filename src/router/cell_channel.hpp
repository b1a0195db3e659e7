// Socket client channel to a remote placement cell.
//
// The router talks to cells through the RequestSink contract; an embedded
// cell is just the PlacementService itself, a remote cell is this class: a
// pipelined client over one TCP or Unix-domain connection speaking PRVB1
// (binary_protocol.hpp), the only codec one daemon speaks to another. The
// channel sends the preamble at connect and interns vm-type names into the
// cell's string table. submit() atomically enqueues a promise and sends the
// encoded request under one lock, so the promise FIFO and the byte stream
// agree on order; the encode buffer is a member reused across requests, so
// a warm channel submits without allocating. A reader thread reassembles
// response frames and resolves promises first-in-first-out (the daemon
// answers strictly in request order).
//
// A dead connection never hangs callers: every pending and future submit
// resolves to a structured {"ok":false,"error":"cell_unreachable"} reply.
#pragma once

#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "service/protocol.hpp"
#include "service/request_sink.hpp"

namespace prvm {

/// Wire code used for transport-level failures (connection lost, encode
/// round-trip failure) — deliberately distinct from every RejectReason so
/// clients can tell "the cell said no" from "the cell is gone".
inline constexpr char kCellUnreachable[] = "cell_unreachable";

class SocketCellChannel : public RequestSink {
 public:
  /// Connects to `spec` ("unix:PATH" or "tcp:PORT", see parse_endpoint).
  /// Throws std::runtime_error on a bad spec or a failed connect.
  explicit SocketCellChannel(const std::string& spec);
  ~SocketCellChannel() override;

  SocketCellChannel(const SocketCellChannel&) = delete;
  SocketCellChannel& operator=(const SocketCellChannel&) = delete;

  std::future<Response> submit(Request request) override;

  /// False once the connection dropped (submits fail fast afterwards).
  bool connected() const;

 private:
  void reader_loop();
  /// Fails every queued promise with cell_unreachable (connection loss).
  void fail_all_locked(const std::string& detail);

  int fd_ = -1;
  std::string peer_;  ///< the endpoint spec, for error messages
  std::thread reader_;

  mutable std::mutex mu_;
  std::deque<std::promise<Response>> pending_;  ///< FIFO, matches sent order
  /// Reused across submits (guarded by mu_): a warm channel encodes into
  /// this buffer's existing capacity instead of allocating per request.
  std::string encode_buf_;
  /// vm-type name -> slot already interned in the cell's string table.
  std::unordered_map<std::string, std::uint16_t> intern_slots_;
  std::size_t intern_bytes_ = 0;  ///< their names' bytes: the cell's table caps them
  bool down_ = false;
  std::string down_detail_;
};

/// A cell address with ordered failover replicas (DESIGN.md §8): the first
/// reachable endpoint whose node is (or can be made) a leader serves the
/// traffic. Endpoint specs are "unix:PATH" or "tcp:PORT" (loopback).
///
/// Failover is driven by reconnection: when the active connection drops,
/// the next submit walks the endpoint list in order; a node answering
/// health with role "follower" is promoted (an explicit `promote` op)
/// before being adopted — this is how the router fails a cell over to its
/// replica after the leader is SIGKILLed. Endpoints earlier in the list
/// are always tried first, so the original leader reclaims the traffic
/// once it is back (it must have been re-seeded as a follower's replica
/// by the operator; this channel never demotes).
class FailoverCellChannel : public RequestSink {
 public:
  struct Config {
    /// Ordered endpoints: the preferred leader first, replicas after.
    std::vector<std::string> endpoints;
    /// Registry for prvm_router_failovers_total / prvm_router_promotions_total
    /// (null = counters skipped).
    obs::Registry* metrics = nullptr;
  };

  /// Throws std::runtime_error when NO endpoint is usable at construction
  /// (same contract as SocketCellChannel's connect-or-throw).
  explicit FailoverCellChannel(Config config);

  FailoverCellChannel(const FailoverCellChannel&) = delete;
  FailoverCellChannel& operator=(const FailoverCellChannel&) = delete;

  std::future<Response> submit(Request request) override;

  bool connected() const;
  /// The endpoint currently serving traffic (empty while down).
  std::string active_endpoint() const;

 private:
  /// Returns the healthy active channel, failing over if necessary; null
  /// when every endpoint is unusable right now.
  std::shared_ptr<SocketCellChannel> acquire();
  /// Connects `spec` and qualifies the node: healthy leader -> adopted as
  /// is; healthy follower -> promoted first. Null when unusable.
  std::shared_ptr<SocketCellChannel> qualify(const std::string& spec);

  Config config_;
  mutable std::mutex mu_;
  std::shared_ptr<SocketCellChannel> active_;
  std::string active_spec_;
  bool ever_connected_ = false;
  obs::Counter* failovers_ = nullptr;   ///< active endpoint changes
  obs::Counter* promotions_ = nullptr;  ///< followers promoted on failover
};

}  // namespace prvm
