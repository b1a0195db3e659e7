// The placement daemon's engine-side core: a bounded, batched MPSC request
// pipeline around one Datacenter + PageRankVM engine, with write-ahead
// logging and snapshot-based crash recovery.
//
// Threading model: one loop thread per cell, run to completion. The worker
// thread owns every piece of mutable placement state (ledger, engine,
// admission controller, WAL) and is also the cell's only socket thread: it
// epoll_waits on an eventfd plus, when a CellServer is attached, the
// listener and every connection (cell_server.hpp). Each pass it
//
//   1. handles ready fds: accepts, one non-blocking recv per readable
//      connection, retries pending sends;
//   2. takes requests, up to `batch_size`, from the in-process inbox and
//      from the connections' decoded frames, in arrival order;
//   3. executes each through execute_locked, serially;
//   4. appends the pass's WAL frames and flushes them once (inline), or
//      hands them to the flusher thread (see below);
//   5. encodes every response into its connection's output buffer and
//      sends each buffer with one sendmsg — or resolves the in-process
//      promise.
//
// Requests are acknowledged only AFTER their WAL bytes are flushed, so
// every acknowledged decision survives kill -9. Responses leave in request
// order per connection, including those answered without the engine
// (decode errors, util, rebalance). The loop blocks in epoll_wait when idle
// (no busy polling) and wakes on fd readiness, the eventfd, or a timeout
// for degraded-mode storage probes.
//
// In-process submit() is a thin adapter over the same loop: a mutex-guarded
// inbox plus an eventfd wake; rebalance control answers on the caller's
// thread, while util samples, which write the ledger, queue like every
// other request. The planner, embedded cells, tests and benches use it.
//
// WAL group commit overlaps compute with durability without changing any
// result or guarantee (DESIGN.md §6). The deployment picks the path: a cell
// with a WAL whose flush waits on fsync (`fsync_wal`) or on a follower
// (`repl.replicas`) runs a flusher thread, which makes passes durable (one
// write/fsync covering every pass queued when it wakes) while the loop
// computes the next pass; it posts each finished group back through the
// eventfd, and the loop releases the group's responses only then. Every
// other cell flushes inline, where a page-cache write() costs less than the
// hand-off. A failed group flush demotes every covered mutating response and
// degrades the service, exactly like the inline path.
//
// Backpressure: a full inbox rejects immediately with `queue_full` and a
// retry hint; a socket connection stops being read once `max_pipeline` of
// its responses are unsent (tail latency and memory stay bounded; clients
// own their retry policy).
//
// One applier (DESIGN.md §4c): the ledger, the admission controller and
// op_seq are one CellState (snapshot.hpp), changed only by CellState::apply
// (utilization samples aside). A live handler validates, decides (the
// engine's pick() leaves the ledger alone), fills a record and commits it:
// next op_seq, apply, append to the WAL. Recovery and a follower's frame
// stream apply records through the same function, and install_snapshot
// replaces the whole state with one move.
//
// Recovery: on construction with a data directory, the service installs
// the newest snapshot's CellState (if any) and applies the WAL records with
// op_seq beyond it. Replay re-applies logged *outcomes* (PM + concrete
// assignments), not requests, so the recovered ledger is bit-identical to
// the pre-crash one (see datacenter_state_equal) — including activation
// sequence numbers, bucket membership and the free-list.
//
// Graceful drain (SIGTERM): stop admitting, flush the queue, write a final
// snapshot and truncate the WAL, so the next start recovers instantly.
//
// Failure model (DESIGN.md §4d): storage faults degrade, they do not kill.
// All durability IO goes through an IoEnv (injectable for tests/chaos).
// When a WAL flush, snapshot or WAL truncate fails persistently, the
// service enters a read-only degraded mode: mutating requests are rejected
// with `degraded_storage` + retry_after_ms while lookups/stats/health keep
// serving; the worker probes storage with exponential backoff and, once a
// probe succeeds, writes a fresh snapshot covering the in-memory state,
// truncates/reopens the WAL and resumes writes. Requests whose batch's WAL
// flush failed are answered `degraded_storage` instead of being
// acknowledged — acknowledged always implies durable.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cluster/datacenter.hpp"
#include "core/catalog_graphs.hpp"
#include "obs/metrics.hpp"
#include "placement/pagerank_vm.hpp"
#include "rebalance/planner.hpp"
#include "service/protocol.hpp"
#include "service/replication.hpp"
#include "service/request_sink.hpp"
#include "service/snapshot.hpp"
#include "service/wal.hpp"

namespace prvm {

struct ServiceConfig {
  /// In-process submit() inbox capacity; submits beyond it get queue_full.
  std::size_t queue_capacity = 4096;
  /// Max requests executed per loop pass (K). Also the WAL flush batch.
  std::size_t batch_size = 64;
  /// Snapshot after this many mutating ops; 0 = only the final drain
  /// snapshot. Snapshotting truncates the WAL (op_seq gating makes the
  /// crash window between rename and truncate safe).
  std::uint64_t snapshot_every_ops = 0;
  /// Durability root (wal.log + snapshot.bin live here). Empty = ephemeral
  /// service with no WAL and no snapshots (unit tests, dry runs).
  std::filesystem::path data_dir;
  /// fsync the WAL on every batch flush. Off by default: kill -9 safety
  /// only needs the write() (the page cache survives the process); power-
  /// loss safety needs fsync and costs ~ms per batch, so with a data_dir it
  /// also moves flushing to the flusher thread.
  bool fsync_wal = false;
  /// Retry hint attached to queue_full rejections.
  double retry_after_ms = 5.0;
  /// Retry hint attached to degraded_storage rejections (longer: storage
  /// recovery is paced by the probe backoff, not the queue).
  double degraded_retry_after_ms = 50.0;
  /// Storage-probe backoff while degraded: starts at `probe_initial_ms`,
  /// doubles per failed probe up to `probe_max_ms`.
  std::uint64_t probe_initial_ms = 100;
  std::uint64_t probe_max_ms = 5000;
  /// IO environment for WAL/snapshot/probe IO. Null = the real syscalls;
  /// tests and the chaos harness install a FaultInjectingIoEnv.
  std::shared_ptr<IoEnv> io_env;
  /// Metrics registry for every service/engine/IO counter and histogram.
  /// Null = the service creates a private registry (test isolation); the
  /// daemon passes obs::global_registry_ptr() so one exposition covers the
  /// whole process. See DESIGN.md §5.
  std::shared_ptr<obs::Registry> metrics;
  /// Identity within a multi-cell deployment (DESIGN.md §7). Unset = a
  /// standalone single-cell daemon; health then reports cell_id 0 with role
  /// "single" instead of "cell".
  std::optional<std::uint64_t> cell_id;
  /// WAL replication to follower replicas / follower role (DESIGN.md §8).
  ReplicationConfig repl;
  /// Online rebalancer (DESIGN.md §9). `util` samples are accepted into the
  /// ledger and observable regardless, but the planner thread only runs
  /// when rebalance.enabled is set.
  RebalanceConfig rebalance;
  PageRankVmOptions engine;
};

/// Structured rejection of an invalid ServiceConfig: names the offending
/// field so callers (the daemon's flag parser, tests) can report precisely
/// instead of pattern-matching prose.
class ServiceConfigError : public std::invalid_argument {
 public:
  ServiceConfigError(std::string field, const std::string& reason)
      : std::invalid_argument(field + ": " + reason), field_(std::move(field)) {}
  const std::string& field() const noexcept { return field_; }

 private:
  std::string field_;
};

struct ServiceStats {
  std::uint64_t placed = 0;
  std::uint64_t released = 0;
  std::uint64_t migrated = 0;
  std::uint64_t rejected = 0;         ///< admission rejections (not queue_full)
  std::uint64_t queue_rejected = 0;   ///< backpressure rejections
  std::uint64_t batches = 0;          ///< loop passes that executed requests
  std::uint64_t max_batch = 0;        ///< most requests in one pass
  std::uint64_t snapshots = 0;
  std::uint64_t replayed_records = 0; ///< WAL records applied at startup
  std::uint64_t op_seq = 0;           ///< last assigned operation sequence
  bool recovered = false;             ///< state restored from disk at startup
  bool wal_torn_tail = false;         ///< recovery skipped a torn WAL tail
  WalTailStatus wal_tail = WalTailStatus::kClean;  ///< why WAL replay stopped
  bool follower = false;              ///< serving as a replication follower
  bool degraded = false;              ///< storage failing; writes suspended
  std::uint64_t degraded_entries = 0; ///< ok -> degraded transitions
  std::uint64_t storage_probes = 0;   ///< recovery probes attempted while degraded
  std::uint64_t io_errors = 0;        ///< WAL/snapshot/probe IO failures observed
  std::string last_io_error;          ///< most recent IO failure (errno-rich)
};

class CellServer;
struct CellConnection;

class PlacementService : public RequestSink {
 public:
  /// Builds the service. When `config.data_dir` holds a snapshot/WAL from a
  /// previous run, the persisted state wins over a fresh `fleet` (recovery);
  /// otherwise a fresh ledger over `fleet` is created.
  PlacementService(Catalog catalog, std::vector<std::size_t> fleet,
                   std::shared_ptr<const ScoreTableSet> tables, ServiceConfig config);

  /// Stops the worker (hard, like stop_now) if still running.
  ~PlacementService() override;

  PlacementService(const PlacementService&) = delete;
  PlacementService& operator=(const PlacementService&) = delete;

  /// Starts the loop thread. Idempotent.
  void start();

  /// Graceful shutdown: stop admitting (queue_full -> draining), process
  /// everything already queued, write a final snapshot, truncate the WAL,
  /// join the loop. An attached CellServer loses its connections. Idempotent.
  void drain();

  /// Hard stop: the loop finishes its current pass and exits; queued
  /// requests are failed with `draining`; NO final snapshot is written.
  /// This is the in-process stand-in for kill -9 in recovery tests (the
  /// WAL alone must reconstruct acknowledged state).
  void stop_now();

  /// Enqueues a request in the in-process inbox. The future is satisfied by
  /// the loop after the pass's WAL flush; backpressure and draining
  /// rejections and rebalance control resolve immediately.
  std::future<Response> submit(Request request) override;

  /// Synchronous execution, bypassing the loop. Only safe when the loop is
  /// not running (replay, single-threaded tests, benchmarks).
  Response execute(const Request& request);

  /// True while this node serves as a replication follower (mutations are
  /// rejected with not_leader; repl_* ops and reads are served).
  bool is_follower() const { return follower_.load(std::memory_order_relaxed); }

  /// Read-side accessors. Only consistent while the loop is stopped.
  const Datacenter& datacenter() const { return state_.dc; }
  const CellState& state() const { return state_; }
  const Catalog& catalog() const { return state_.dc.catalog(); }
  ServiceStats stats() const;
  bool draining() const { return draining_.load(std::memory_order_relaxed); }
  /// True while storage is failing and mutating requests are rejected.
  bool degraded() const;
  /// The registry every service/engine/IO metric of this instance lives in
  /// (config.metrics, or the private one created when that was null).
  obs::Registry& metrics_registry() const { return *metrics_; }
  /// Sets prvm_resident_bytes and prvm_heap_in_use_bytes from the process's
  /// memory now. The `metrics` op calls it; so should any other exporter of
  /// the registry. Safe from any thread.
  void refresh_memory_gauges();
  /// Encodes and decodes the ledger's utilization sample words
  /// (Datacenter::vm_sample / pm_sample).
  const UtilizationCodec& utilization_codec() const { return util_codec_; }
  /// The background planner; null unless config.rebalance.enabled. Tests
  /// drive deterministic rounds through rebalancer()->run_round(now).
  RebalancePlanner* rebalancer() { return planner_.get(); }

 private:
  friend class CellServer;

  /// An in-process submit() waiting in the inbox.
  struct Pending {
    Request request;
    std::promise<Response> promise;
    std::uint64_t enqueued_ns = 0;  ///< submit() timestamp (queue-wait metric)
  };

  /// One request of a loop pass and where its response goes.
  struct Job {
    Request request;
    Response response;
    /// Socket origin; null = in-process, answered through the next promise
    /// of the pass (promises keep job order).
    CellConnection* conn = nullptr;
    std::uint64_t decoded_ns = 0;  ///< recv or submit clock (queue-wait start)
    bool answered = false;         ///< decode error: response preset, not executed
  };

  /// The responses of one pass, delivered together once the flush group
  /// `group` is durable (or at once when nothing is awaiting a flush).
  struct Outbox {
    std::vector<Job> jobs;
    std::vector<std::promise<Response>> promises;
    std::uint64_t group = 0;
    /// The group holds this pass's WAL frames: a failed or unreplicated
    /// flush demotes its acks. False when the pass only waits behind
    /// earlier groups to keep response order.
    bool own_group = false;
  };

  void init_metrics();
  void worker_loop();
  /// Inbox intake and loop control (stop, server detach) under mu_; true
  /// when the loop must exit.
  bool take_inbox(bool& inbox_backlog);
  /// Executes the current pass and routes its responses.
  void run_pass();
  /// Hands every response of `box` to its connection or promise.
  void deliver(Outbox& box);
  /// Releases outboxes whose flush groups the flusher reported done.
  void release_flushed();
  /// Loop-side server detach: quiesces, then closes every connection.
  void detach_server_now();
  void wake() const;
  /// Called by CellServer on the caller's thread.
  void attach(CellServer& server, int listen_fd);
  void detach(CellServer& server);
  Response execute_locked(const Request& request);
  Response place(const Request& request);
  Response release(const Request& request);
  Response migrate(const Request& request);
  Response lookup(const Request& request);
  Response stats_response();
  Response health_response();
  Response metrics_response();
  Response drain_response();
  // --- online rebalancer (DESIGN.md §9) ---
  /// Records one utilization sample in the ledger, on the loop thread: a VM
  /// sample lands in the VM's slot only when the ledger holds that VM,
  /// otherwise it is counted in prvm_rebal_util_unknown_total and dropped.
  Response util_response(const Request& request);
  /// Planner status/trigger/pause/resume; atomics only, any thread.
  Response rebalance_response(const Request& request) const;
  /// Worker thread: fills the planner's ScanSink with a frozen ledger copy
  /// plus this node's role/mode.
  Response rebalance_scan_response(const Request& request);
  // --- replication (DESIGN.md §8) ---
  /// Follower side: answer a leader's handshake with this node's op_seq.
  Response repl_hello_response(const Request& request);
  /// Follower side: accumulate snapshot chunks; on eof, parse + install the
  /// full state and persist it as this node's own snapshot.
  Response apply_repl_snapshot(const Request& request);
  /// Follower side: decode a batch of WAL frames and apply each record —
  /// idempotent skip at or below the state's op_seq, "repl_gap" rejection
  /// above op_seq + 1.
  Response apply_repl_frames(const Request& request);
  /// Failover: flip this follower into a leader (kNotFollower when already
  /// one; "repl_lag" when the caller supplied a seq this node has not seen).
  Response promote_response(const Request& request);
  /// not_leader rejection for client mutations on a follower, carrying the
  /// configured leader hint.
  Response not_leader_reject(const Request& request) const;
  /// Rewrites an acknowledged mutating response whose replication quorum was
  /// not met into a `not_replicated` rejection. The op stays applied (and
  /// locally durable) — only the replication guarantee is reported missing.
  void demote_unreplicated(RequestOp op, Response& response) const;
  /// Leader side: streams `frames` (last record = last_seq) to followers and
  /// returns true when the configured ack_replicas quorum confirmed (always
  /// true when ack_replicas == 0 — replication is then best-effort).
  bool replicate_frames(const std::string& frames, std::uint64_t last_seq);
  /// Leader side, worker thread: when some link needs catch-up, serialize
  /// the authoritative state and push it through the sender.
  void maybe_send_catchup_snapshot();
  std::optional<std::size_t> resolve_vm_type(const Request& request) const;
  bool feasible_anywhere(std::size_t vm_type, const PlacementConstraints& constraints) const;
  /// Counts an applied record in the placed/released/migrated counters; a
  /// degenerate pm == from_pm migrate is not a migration.
  void count_applied(const WalRecord& record);
  /// wal_record_, reset to a record of `type` for `vm` (capacity kept).
  WalRecord& new_record(WalRecord::Type type, std::uint64_t vm);
  /// Live path: numbers `record` with the next op_seq, applies it and
  /// appends it to the WAL.
  void commit(WalRecord& record);
  void log_record(const WalRecord& record);
  /// Timed, counted wal_->flush(); clears wal_dirty_.
  IoStatus flush_wal();
  /// Flushes the WAL, writes a snapshot and truncates the WAL.
  IoStatus take_snapshot();
  /// Timed, counted save_snapshot() of the current state; on success
  /// snapshot_op_seq_ covers the state's op_seq.
  IoStatus write_snapshot();
  /// Replaces the cell's state with a snapshot's (recovery and follower
  /// catch-up), keeping the utilization samples both ledgers can hold.
  void install_snapshot(CellState snapshot);
  void recover(const std::vector<std::size_t>& fleet);

  // --- WAL group commit (flusher thread) ---
  /// A computed pass awaiting durability: the flusher flushes its WAL bytes
  /// (coalesced with every group queued behind it) and posts the result
  /// back; the loop then releases the pass's Outbox.
  struct FlushGroup {
    std::uint64_t seq = 0;            ///< group number, increasing
    std::size_t ops = 0;              ///< requests of the pass
    std::size_t wal_bytes = 0;        ///< frame bytes this pass appended
    std::uint64_t computed_ns = 0;    ///< compute-done timestamp (flush-lag metric)
    std::string repl_frames;          ///< the same frames, for replication
    std::uint64_t last_seq = 0;       ///< op_seq of the group's last record
  };
  /// Flusher -> loop: every group up to `seq` is settled with this verdict.
  struct FlushDone {
    std::uint64_t seq = 0;
    std::string failure;      ///< flush error; empty = durable
    bool replicated = true;   ///< replication quorum met (or not required)
  };
  void start_flusher();
  /// Flushes everything still queued, then joins the flusher.
  void stop_flusher();
  void flusher_loop();
  /// Blocks until the flusher queue is empty and the flusher is idle. The
  /// loop quiesces the pipeline this way before any snapshot, WAL truncate,
  /// storage-probe recovery or server detach.
  void flusher_barrier();
  /// Builds a structured rejection and bumps its per-reason verdict counter
  /// (const: counter updates are atomic, no service state changes).
  Response reject(const Request& request, RejectReason reason, std::string message) const;

  // --- degraded-mode state machine (worker thread only) ---
  /// Records the failure, suspends writes and schedules the first probe.
  void enter_degraded(const IoStatus& status);
  /// Rewrites an acknowledged mutating response whose WAL flush failed into
  /// a degraded_storage rejection (ack implies durable; this one is not).
  /// `error_message` is passed explicitly because the flusher thread demotes
  /// too and must not race the worker-owned last_io_error_.
  void demote_unlogged(RequestOp op, Response& response,
                       const std::string& error_message) const;
  /// When degraded and the backoff deadline passed: probe storage and, on
  /// success, snapshot + truncate the WAL and resume writes.
  void maybe_probe_storage();
  /// Writes and fsyncs a scratch file in the data dir (the storage probe).
  IoStatus probe_storage();
  Response degraded_reject(const Request& request) const;

  ServiceConfig config_;
  CellState state_;
  std::shared_ptr<obs::Registry> metrics_;  ///< before engine_: the engine points into it
  std::unique_ptr<PageRankVm> engine_;
  std::unordered_map<std::string, std::size_t> vm_type_by_name_;

  /// Sample decay settings and epoch; the samples live in the ledger.
  UtilizationCodec util_codec_;
  /// Background migration planner (null unless config.rebalance.enabled).
  /// Started after the worker, stopped before it: every planner request
  /// must find a live worker or a truthful draining rejection.
  std::unique_ptr<RebalancePlanner> planner_;

  IoEnv* io_ = nullptr;  ///< instrumented_io_ (wrapping config_.io_env or the real env)
  std::unique_ptr<InstrumentedIoEnv> instrumented_io_;
  std::unique_ptr<WalWriter> wal_;
  std::uint64_t snapshot_op_seq_ = 0;  ///< op_seq covered by the last snapshot
  bool wal_dirty_ = false;  ///< appended since last flush
  std::size_t batch_wal_bytes_ = 0;  ///< frame bytes the current batch appended

  // --- flusher state ---
  std::thread flusher_;
  std::mutex flush_mu_;
  std::condition_variable flush_cv_;       ///< worker -> flusher: work / stop
  std::condition_variable flush_idle_cv_;  ///< flusher -> worker: drained
  std::deque<FlushGroup> flush_queue_;     ///< guarded by flush_mu_
  /// Only transitions while neither worker nor producers run (start_flusher
  /// precedes the worker spawn; stop_flusher follows its join), so the
  /// worker's lock-free reads observe a constant.
  bool flusher_running_ = false;
  bool flusher_stop_ = false;              ///< guarded by flush_mu_
  bool flusher_busy_ = false;              ///< guarded by flush_mu_
  /// Set by the flusher when a group flush fails; until the worker clears it
  /// through storage recovery, the flusher demotes instead of flushing. The
  /// worker observes it at the top of its loop and enters degraded mode.
  std::atomic<bool> flush_failed_{false};
  IoStatus flusher_status_;  ///< the failing status, guarded by flush_mu_

  // Degraded-mode bookkeeping (worker-owned; the atomic mirror lets
  // submit() and external readers observe the mode without the lock).
  std::atomic<bool> degraded_{false};
  std::uint64_t probe_backoff_ms_ = 0;
  std::uint64_t next_probe_at_ms_ = 0;

  /// References into metrics_, resolved once by init_metrics(). These ARE
  /// the service counters — ServiceStats and the stats/health responses are
  /// materialized from them, so the wire shapes never see the registry.
  struct Metrics {
    obs::Counter* placed = nullptr;
    obs::Counter* released = nullptr;
    obs::Counter* migrated = nullptr;
    obs::Counter* rejected = nullptr;       ///< admission rejections
    obs::Counter* queue_rejected = nullptr;
    obs::Counter* batches = nullptr;
    obs::Counter* snapshots = nullptr;
    obs::Counter* wal_appends = nullptr;
    obs::Counter* replayed_records = nullptr;
    obs::Counter* io_errors = nullptr;
    obs::Counter* degraded_transitions = nullptr;
    obs::Counter* probes = nullptr;
    obs::Counter* probe_failures = nullptr;
    obs::Counter* probe_successes = nullptr;
    /// Per-RejectReason verdict counters (kNone unused).
    std::array<obs::Counter*, kRejectReasonCount> reject_by_reason{};
    // Pipeline stages (DESIGN.md §6).
    obs::Counter* flush_groups = nullptr;    ///< group-commit flush calls
    // Replication & failover (DESIGN.md §8).
    obs::Counter* repl_applied = nullptr;     ///< WAL records applied as follower
    obs::Counter* repl_snapshots_in = nullptr;///< catch-up snapshots installed
    obs::Counter* promotions = nullptr;       ///< follower -> leader transitions
    // Online rebalancer feed (DESIGN.md §9; planner counters live in
    // RebalancePlanner, which shares this registry).
    obs::Counter* util_samples = nullptr;     ///< util ops ingested
    obs::Counter* util_unknown = nullptr;     ///< samples for VMs the ledger does not hold
    obs::Gauge* mode = nullptr;        ///< 0 ok, 1 draining, 2 degraded
    obs::Gauge* queue_depth = nullptr;
    obs::Gauge* wal_lag = nullptr;
    obs::Gauge* max_batch = nullptr;
    obs::Gauge* flush_queue_depth = nullptr;  ///< batches awaiting their flush
    obs::Gauge* admission_groups = nullptr;   ///< live anti-collocation groups
    obs::Gauge* admission_grouped_vms = nullptr;
    obs::Gauge* used_pms = nullptr;  ///< PMs hosting a VM: the fleet's packing
    obs::Gauge* vms = nullptr;       ///< placed VMs
    obs::Gauge* resident_bytes = nullptr;     ///< the process's resident memory
    obs::Gauge* heap_in_use_bytes = nullptr;  ///< malloc'd and not freed
    obs::Histogram* queue_wait_ns = nullptr;
    obs::Histogram* batch_size = nullptr;
    obs::Histogram* place_compute_ns = nullptr;  ///< the engine's pick alone
    obs::Histogram* wal_flush_ns = nullptr;
    obs::Histogram* snapshot_ns = nullptr;
    obs::Histogram* flush_group_ops = nullptr;  ///< ops covered per group flush
    obs::Histogram* flush_lag_ns = nullptr;     ///< batch compute-done -> ack release
    obs::Histogram* util_sample_pct = nullptr;  ///< ingested util samples, in %
  };
  Metrics m_;

  // --- replication state (DESIGN.md §8) ---
  /// Leader side: the frame sender (null when config_.repl.replicas is
  /// empty or this node is a follower). Internally synchronized — the
  /// worker (snapshot catch-up) and flusher (frame stream) share it.
  std::unique_ptr<ReplicationSender> repl_;
  /// Role flag; flips exactly once, on promote. Atomic so submit-side
  /// callers (router health checks, tools) can read it without the lock.
  std::atomic<bool> follower_{false};
  /// Leader side, worker-owned: frames of the pass being computed, handed
  /// to the flusher with the FlushGroup (mirrors batch_wal_bytes_).
  std::string batch_repl_frames_;
  /// Follower side, worker-owned: snapshot chunks accumulated during
  /// catch-up; installed atomically when the eof chunk lands.
  std::string repl_snap_buffer_;
  std::uint64_t repl_snap_offset_ = 0;  ///< next expected chunk offset

  // Non-counter bits of ServiceStats (worker-owned).
  bool recovered_ = false;
  bool wal_torn_tail_ = false;
  WalTailStatus wal_tail_ = WalTailStatus::kClean;
  std::string last_io_error_;

  // --- the loop (worker thread) ---
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd: inbox, flusher completions, control
  /// Attached socket front end. Set by attach() before its listener enters
  /// the epoll set; cleared only by the loop (or by detach() while no loop
  /// runs).
  std::atomic<CellServer*> server_{nullptr};
  Outbox pass_;                       ///< the pass being built / executed
  std::deque<Outbox> awaiting_;       ///< passes waiting for their flush group
  std::vector<Outbox> spare_;         ///< recycled outboxes (keep capacity)
  std::uint64_t last_group_ = 0;      ///< newest group handed to the flusher
  std::vector<FlushDone> flush_done_; ///< guarded by flush_mu_
  std::vector<FlushDone> done_scratch_;
  WalRecord wal_record_;              ///< reused by new_record()

  mutable std::mutex mu_;
  std::condition_variable drained_cv_;   ///< inbox emptied (drain waits)
  std::condition_variable detached_cv_;  ///< server detach completed
  std::deque<Pending> inbox_;            ///< guarded by mu_
  std::atomic<bool> draining_{false};    ///< written under mu_
  bool stop_ = false;                    ///< guarded by mu_
  bool detach_requested_ = false;        ///< guarded by mu_
  bool loop_active_ = false;             ///< guarded by mu_: the loop serves
  bool worker_running_ = false;
  std::thread worker_;
};

}  // namespace prvm
