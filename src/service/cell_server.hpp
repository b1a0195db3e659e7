// Socket front end of one placement cell, served from the cell's own loop.
//
// A CellServer owns a listening socket and its connections, but no thread:
// every accept, recv, decode, response encode and send runs on the
// PlacementService loop thread, between and around that thread's engine
// passes (service.hpp describes the pass). The service's epoll set holds
// the listener and every connection; this class is the per-fd half of the
// loop:
//
//   - accept: non-blocking accept4 until EAGAIN. On EMFILE/ENFILE the
//     listener leaves the epoll set until a connection closes or a short
//     back-off passes, so fd exhaustion neither spins nor stops serving.
//   - recv: one non-blocking recv per readiness event into the connection's
//     LineBuffer / BinaryFrameBuffer (protocol sniffed from the first bytes,
//     exactly like SocketServer: the "PRVB1" preamble selects binary). One
//     clock read per recv stamps the frames it carries (queue-wait start).
//   - collect: decodes frames into the pass's job list, round-robin across
//     connections, up to the pass limit. Decode failures become pre-answered
//     jobs in their order slot, so FIFO order per connection holds for every
//     response, engine-answered or not.
//   - deliver + send: responses encode straight into the connection's output
//     buffer; after the pass, one sendmsg per connection ships them. Unsent
//     bytes stay buffered and retry on EPOLLOUT.
//
// Backpressure: a connection stops being read once its unsent responses
// (decoded but unanswered, plus encoded but not yet taken by the kernel)
// reach `max_pipeline`; it resumes once its output drains. A client that
// never reads therefore stalls only itself, with bounded daemon memory.
//
// A connection closes on EOF once its in-flight responses are delivered,
// and at once on a reset or hang-up (its responses are then dropped).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "service/service.hpp"
#include "service/socket_server.hpp"

namespace prvm {

class CellServer {
 public:
  CellServer(PlacementService& service, SocketServerConfig config);
  ~CellServer();

  CellServer(const CellServer&) = delete;
  CellServer& operator=(const CellServer&) = delete;

  /// Binds, listens and joins the service's loop. Throws on bind failure.
  /// At most one server per service.
  void start();

  /// Closes the listener and every connection, dropping responses not yet
  /// sent. Idempotent; does NOT drain the PlacementService.
  void stop();

  /// The bound TCP port (resolved when tcp_port was 0); -1 for UDS.
  int port() const { return port_; }

  /// Most responses any one connection held unsent at once; never exceeds
  /// max_pipeline.
  std::size_t peak_unsent() const { return peak_unsent_.load(std::memory_order_relaxed); }

 private:
  friend class PlacementService;

  // --- loop-thread hooks (PlacementService::worker_loop) ---
  /// Handles one epoll event whose data.ptr is this server (the listener)
  /// or one of its connections.
  void on_event(void* tag, std::uint32_t events);
  /// Appends decoded requests to `jobs` until it holds `limit` entries or
  /// no connection has a complete frame buffered.
  void collect(std::vector<PlacementService::Job>& jobs, std::size_t limit);
  /// True when some connection still holds complete frames (the loop then
  /// polls instead of blocking).
  bool has_backlog() const { return !ready_.empty(); }
  /// Encodes `response` into the connection's output buffer.
  void deliver(CellConnection* connection, const Response& response);
  /// One sendmsg per connection with new output, then closes finished
  /// connections and re-arms a paused listener.
  void send_pending();
  /// epoll_wait timeout this server needs (-1 = none): the accept back-off.
  int timeout_ms() const;
  /// Closes the listener and every connection. Only when no job references
  /// a connection (the service quiesces its flush pipeline first).
  void close_all();

  void accept_ready();
  void read_ready(CellConnection* connection);
  /// Routes received bytes to the connection's frame buffer, sniffing the
  /// protocol off the first bytes.
  void feed(CellConnection* connection, std::string_view bytes);
  /// Decodes one connection's frames until `jobs` holds `limit` entries
  /// (true: frames may remain) or none is left or it pauses (false).
  bool decode(CellConnection* connection, std::vector<PlacementService::Job>& jobs,
              std::size_t limit);
  void try_send(CellConnection* connection);
  /// Sets the connection's epoll interest from its state (read unless
  /// finished or paused, write while output is pending).
  void update_interest(CellConnection* connection);
  void close_fd(CellConnection* connection);
  void mark_ready(CellConnection* connection);
  /// Closes connections that are done and frees closed ones no job
  /// references.
  void sweep();
  void rearm_listener();

  PlacementService& service_;
  SocketServerConfig config_;
  int listen_fd_ = -1;
  int port_ = -1;
  bool started_ = false;
  bool listening_ = false;              ///< listener is in the epoll set
  std::uint64_t accept_retry_ms_ = 0;   ///< back-off deadline after EMFILE
  std::vector<std::unique_ptr<CellConnection>> connections_;
  std::vector<CellConnection*> ready_;  ///< connections with frames to decode
  std::vector<CellConnection*> dirty_;  ///< connections with output to send
  bool sweep_ = false;                  ///< some connection may be done
  bool freed_fd_ = false;               ///< a connection closed its fd
  std::unique_ptr<char[]> recv_buf_;
  std::atomic<std::size_t> peak_unsent_{0};
};

}  // namespace prvm
