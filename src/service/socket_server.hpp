// Thread-per-connection socket front end for a RequestSink: the routing
// tier's (prvm_router) listener. A cell daemon serves its sockets from the
// PlacementService loop instead (cell_server.hpp). The router keeps this
// design because Router::submit returns deferred futures whose
// continuations run at the response's FIFO slot on the writer thread and
// may wait there on remote cells, so each connection needs its own thread.
//
// Each connection auto-negotiates its wire protocol from the first bytes
// it sends: the 5-byte preamble "PRVB1" selects the binary protocol
// (binary_protocol.hpp), anything else — a JSON-lines client always leads
// with '{' or whitespace — falls through to the JSON path unchanged.
//
// Per connection, a reader thread reassembles frames (LineBuffer /
// BinaryFrameBuffer handle partial reads and hostile-input resync),
// decodes them, and submits to the service; a writer thread emits
// responses strictly in request order. Binary frames decode straight out
// of the connection read buffer (string_view payloads, no per-frame
// string), and the writer gathers a burst of already-resolved responses
// into one vectored sendmsg — N responses, one syscall. The pair is
// coupled by a bounded pipeline of response futures, so a client may
// stream many requests ahead of its reads (pipelining is what lets one
// connection keep the batching engine busy) while memory per connection
// stays bounded — the reader blocks once `max_pipeline` responses are
// outstanding.
//
// Decode failures never kill the connection: they resolve to structured
// error replies in the same order slot the request occupied.
//
// A finished connection closes its own fd; its threads are joined by the
// next accept (or stop()). Accept survives EMFILE/ENFILE with a short
// back-off and only returns once the listener is closed.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "service/request_sink.hpp"

namespace prvm {

/// Listener settings, shared by SocketServer and CellServer.
struct SocketServerConfig {
  /// Unix-domain socket path; takes precedence over TCP when non-empty.
  std::string unix_path;
  /// TCP port to bind on loopback; 0 picks an ephemeral port (see port()).
  /// Negative = TCP disabled.
  int tcp_port = -1;
  int backlog = 64;
  /// Max responses in flight per connection before it stops being read.
  std::size_t max_pipeline = 256;
  /// Per-connection frame cap. Followers raise this to kMaxReplFrameBytes
  /// so repl_snap/repl_frames payloads fit in one frame; client-facing
  /// servers keep the tight default.
  std::size_t max_frame = kMaxFrameBytes;
};

/// Binds and listens per `config` (Unix path first, else loopback TCP),
/// non-blocking and close-on-exec; sets `port` to the bound TCP port (-1
/// for UDS). Throws on failure, including a port outside 0..65535.
int open_listener(const SocketServerConfig& config, int& port);

/// A decimal TCP port in 0..65535 (0 = ephemeral, meaningful to listeners
/// only): digits only, nothing before or after. Nullopt otherwise.
std::optional<int> parse_port(std::string_view text);

/// The address of another daemon: "unix:PATH" or "tcp:PORT" on loopback.
struct Endpoint {
  std::string unix_path;  ///< set for unix:PATH
  int tcp_port = -1;      ///< 1..65535 for tcp:PORT
};

/// Parses an endpoint spec. Refuses a bare path, an unknown scheme, an empty
/// path, a path too long for sun_path (107 bytes plus its terminator) and a
/// port outside 1..65535 — nothing is truncated into a different address.
std::optional<Endpoint> parse_endpoint(std::string_view spec);

/// Connects (blocking, close-on-exec; TCP_NODELAY on TCP) to `spec`. The
/// one client-side connector for daemon-to-daemon links. Returns the fd, or
/// -1 when the spec does not parse or the connect fails.
int connect_endpoint(std::string_view spec);

class SocketServer {
 public:
  SocketServer(RequestSink& service, SocketServerConfig config);
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Binds, listens and spawns the accept loop. Throws on bind failure.
  void start();

  /// Stops accepting, shuts down every live connection, joins all threads.
  /// Idempotent; does NOT touch the PlacementService (drain separately).
  void stop();

  /// The bound TCP port (resolved when tcp_port was 0); -1 for UDS.
  int port() const { return port_; }

 private:
  struct Connection;

  void accept_loop();
  /// Joins and frees connections whose threads finished (under mu_).
  void reap_finished();
  void serve_connection(Connection* connection);
  /// The connection's read loop; `initial` is whatever arrived past the
  /// sniffed preamble in the first read(s).
  void serve_requests(Connection* connection, std::string_view initial, bool binary);
  /// Pushes one response future into the ordered pipeline, blocking on the
  /// `max_pipeline` cap.
  void enqueue(Connection* connection, std::future<Response> response);

  RequestSink& service_;
  SocketServerConfig config_;
  int listen_fd_ = -1;
  int port_ = -1;
  std::thread accept_thread_;
  std::mutex mu_;
  bool stopping_ = false;
  std::vector<std::unique_ptr<Connection>> connections_;
};

}  // namespace prvm
