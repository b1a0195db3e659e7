// Leader-side WAL replication to follower replicas (DESIGN.md §8).
//
// A leader streams the exact CRC-framed WAL bytes it writes locally to one
// or more followers over PRVB1 (binary_protocol.hpp), piggybacked on the
// group-commit flusher: one repl_frames request per flush group, not one
// round trip per op. Snapshot chunks and WAL frames travel as raw bytes in
// Request::data behind PRVB1's u32 length prefix and frame CRC. Followers apply the frames into a live PlacementService replica
// (their own WAL makes the apply durable before they ack), so a follower
// ack means "this op survives the loss of the leader's machine".
//
// Per-link protocol, synchronous per call (no reader threads; acks carry
// the follower's op_seq, so no request/response matching is needed):
//
//   repl_hello  {seq: leader op_seq}        -> {ok, op_seq: follower seq}
//   repl_snap   {seq, offset, eof, data}    -> {ok, op_seq}   (catch-up)
//   repl_frames {seq, data}                 -> {ok, op_seq}   (stream)
//
// A follower that is behind the stream (fresh boot, restart, missed
// frames) answers repl_frames with error "repl_gap"; the link is parked in
// kNeedsSnapshot until the worker thread — the only thread that may read
// the authoritative state — serializes a full snapshot and hands it to
// send_snapshot(). Frames the follower has already applied (op_seq <= its
// own) are skipped idempotently on the follower, which is what makes the
// snapshot/stream overlap race-free.
//
// Durability level `ack_after_replicated` (ServiceConfig::repl.ack_replicas
// > 0): the flusher calls replicate(..., wait=true) after the local flush
// and demotes the group's acks to `not_replicated` when fewer than N links
// confirm within the timeout. The ops stay applied locally and reach the
// followers when they recover — the rejection only says the *replication*
// guarantee was not met, mirroring degrade-don't-die.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "service/binary_protocol.hpp"

namespace prvm {

/// Replication knobs, embedded in ServiceConfig as `repl`.
struct ReplicationConfig {
  /// Follower endpoints the leader streams to: "unix:PATH" or "tcp:PORT"
  /// (loopback). Empty = replication off.
  std::vector<std::string> replicas;
  /// ack_after_replicated durability: client acks release only after this
  /// many followers confirmed the covering frames. 0 = replicate
  /// best-effort without holding acks.
  std::size_t ack_replicas = 0;
  /// How long the flusher waits for follower acks before demoting.
  std::uint64_t ack_timeout_ms = 2000;
  /// Start as a follower: apply repl_* ops, serve reads, reject mutations
  /// with not_leader until promoted.
  bool follower = false;
  /// Advertised to writers rejected with not_leader ("unix:/path/to/leader").
  std::string leader_hint;
};

class ReplicationSender {
 public:
  /// `registry` may be null (metrics skipped). Endpoints that fail to
  /// connect stay down and are retried on every replicate() call.
  ReplicationSender(std::vector<std::string> endpoints, obs::Registry* registry,
                    std::uint64_t ack_timeout_ms);
  ~ReplicationSender();

  ReplicationSender(const ReplicationSender&) = delete;
  ReplicationSender& operator=(const ReplicationSender&) = delete;

  /// Connects + handshakes every down link (worker thread, before traffic).
  /// Links whose follower is behind `leader_seq` park in kNeedsSnapshot.
  void connect_all(std::uint64_t leader_seq);

  /// True when some link needs a full-state snapshot to (re)join the
  /// stream. The worker polls this between batches.
  bool needs_snapshot() const { return snapshot_needed_.load(std::memory_order_relaxed); }

  /// Pushes a serialized snapshot (serialize_snapshot bytes covering
  /// `snap_seq`) to every link parked in kNeedsSnapshot. Reconnects each
  /// such link first, so the chunk/ack exchange runs on a clean socket.
  void send_snapshot(const std::string& blob, std::uint64_t snap_seq);

  /// Streams a buffer of concatenated WAL frames whose last record is
  /// `last_seq`. With `wait`, blocks up to the ack timeout and returns how
  /// many links confirmed op_seq >= last_seq; without, drains any pending
  /// acks opportunistically and returns the links currently at or beyond
  /// `last_seq`. Safe to call with an empty buffer (pure ack drain).
  std::size_t replicate(const std::string& frames, std::uint64_t last_seq, bool wait);

  std::size_t link_count() const { return links_.size(); }
  /// Links currently streaming (connected and caught up enough to receive
  /// frames); for health reporting.
  std::size_t streaming_links() const;

 private:
  struct Link {
    std::string spec;
    int fd = -1;
    enum class State { kDown, kNeedsSnapshot, kStreaming } state = State::kDown;
    std::uint64_t acked_seq = 0;
    std::size_t outstanding = 0;     ///< repl requests sent, acks not yet read
    std::size_t pending_bytes = 0;   ///< payload bytes sent since last full drain
    BinaryFrameBuffer inbox{kMaxBinaryResponseBytes};
  };

  /// Connects the link and sends the PRVB1 preamble.
  bool connect_link(Link& link);
  void close_link(Link& link, bool failure);
  /// repl_hello exchange; classifies the link as streaming / needs-snapshot.
  bool handshake(Link& link, std::uint64_t leader_seq);
  /// Encodes `request` as one PRVB1 frame and sends it; counts it
  /// outstanding. Closes the link on failure.
  bool send_request(Link& link, const Request& request);
  /// Writes all of `bytes`; false when the peer is gone (the link stays open).
  bool send_bytes(Link& link, std::string_view bytes);
  /// Reads one response frame, waiting up to `deadline_ms` (0 = only what is
  /// already readable). Updates acked_seq/outstanding; flips the link to
  /// kNeedsSnapshot on a repl_gap or any other rejection.
  bool read_response(Link& link, std::uint64_t wait_ms);
  void update_lag_gauge();

  std::vector<Link> links_;
  std::uint64_t ack_timeout_ms_;
  mutable std::mutex mu_;  ///< serializes worker (snapshot) vs flusher (frames)
  std::string out_;        ///< encode buffer reused across requests (under mu_)
  std::atomic<bool> snapshot_needed_{false};

  obs::Counter* frames_total_ = nullptr;   ///< WAL records streamed
  obs::Counter* bytes_total_ = nullptr;    ///< frame bytes streamed
  obs::Counter* acks_total_ = nullptr;     ///< follower acks received
  obs::Counter* snapshots_total_ = nullptr;
  obs::Counter* link_failures_ = nullptr;
  obs::Gauge* lag_bytes_ = nullptr;        ///< bytes in flight to followers
};

}  // namespace prvm
