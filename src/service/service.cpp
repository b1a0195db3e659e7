#include "service/service.hpp"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <utility>

#include "common/allocator.hpp"
#include "common/check.hpp"
#include "service/cell_server.hpp"
#include "service/snapshot.hpp"

namespace prvm {

namespace {

const char* kWalFile = "wal.log";
const char* kSnapshotFile = "snapshot.bin";
const char* kProbeFile = ".storage-probe";

/// An acknowledgement of `op`, naming `vm` when the op concerns one.
Response accepted(const char* op, std::optional<std::uint64_t> vm = std::nullopt) {
  Response response;
  response.ok = true;
  response.op = op;
  response.vm = vm;
  return response;
}

/// The requests whose acknowledgement promises a WAL record: the three
/// that change the ledger.
bool changes_ledger(RequestOp op) {
  return op == RequestOp::kPlace || op == RequestOp::kRelease || op == RequestOp::kMigrate;
}

}  // namespace

PlacementService::PlacementService(Catalog catalog, std::vector<std::size_t> fleet,
                                   std::shared_ptr<const ScoreTableSet> tables,
                                   ServiceConfig config)
    : config_(std::move(config)),
      state_{Datacenter(std::move(catalog), fleet), {}, 0},
      metrics_(config_.metrics != nullptr ? config_.metrics
                                          : std::make_shared<obs::Registry>()),
      util_codec_({config_.rebalance.half_life_ms, config_.rebalance.stale_after_ms},
                  obs::now_ns()) {
  PRVM_REQUIRE(config_.batch_size > 0, "batch size must be positive");
  PRVM_REQUIRE(config_.queue_capacity > 0, "queue capacity must be positive");
  if (config_.repl.follower && !config_.repl.replicas.empty()) {
    throw ServiceConfigError("repl.replicas",
                             "a follower cannot itself replicate (chained replication after "
                             "promotion is not supported)");
  }
  if (config_.repl.ack_replicas > config_.repl.replicas.size()) {
    throw ServiceConfigError(
        "repl.ack_replicas",
        "cannot exceed the configured replicas (" +
            std::to_string(config_.repl.replicas.size()) + ")");
  }
  if (!config_.repl.replicas.empty() && config_.data_dir.empty()) {
    throw ServiceConfigError("repl.replicas",
                             "replication streams the WAL frames, so a leader needs a data_dir");
  }
  if (config_.rebalance.enabled) {
    if (!(config_.rebalance.overload_threshold > 0.0 &&
          config_.rebalance.overload_threshold <= 1.5)) {
      throw ServiceConfigError("rebalance.overload_threshold", "must be in (0, 1.5]");
    }
    if (config_.rebalance.underload_threshold < 0.0 ||
        config_.rebalance.underload_threshold >= config_.rebalance.overload_threshold) {
      throw ServiceConfigError("rebalance.underload_threshold",
                               "must be >= 0 and below the overload threshold");
    }
    if (config_.rebalance.interval_ms == 0) {
      throw ServiceConfigError("rebalance.interval_ms", "must be positive");
    }
    if (config_.rebalance.max_moves_per_round == 0) {
      throw ServiceConfigError("rebalance.max_moves_per_round", "must be positive");
    }
  }
  follower_.store(config_.repl.follower, std::memory_order_relaxed);
  init_metrics();
  // The engine reports into this service's registry unless the caller wired
  // it elsewhere explicitly.
  if (config_.engine.metrics == nullptr) config_.engine.metrics = metrics_.get();
  engine_ = std::make_unique<PageRankVm>(tables, config_.engine);
  // The util op is accepted whether or not planning is on (operators can
  // warm the feed before enabling), but the planner thread only runs when
  // --rebalance asked for it.
  if (config_.rebalance.enabled) {
    planner_ = std::make_unique<RebalancePlanner>(config_.rebalance, *this, util_codec_,
                                                  tables, metrics_);
  }
  tables.reset();
  IoEnv* base = config_.io_env != nullptr ? config_.io_env.get() : &IoEnv::real();
  if (auto* injector = dynamic_cast<FaultInjectingIoEnv*>(base)) {
    injector->bind_metrics(*metrics_);
  }
  instrumented_io_ = std::make_unique<InstrumentedIoEnv>(base, *metrics_);
  io_ = instrumented_io_.get();
  for (std::size_t v = 0; v < this->catalog().vm_types().size(); ++v) {
    vm_type_by_name_.emplace(this->catalog().vm_type(v).name, v);
  }
  if (!config_.data_dir.empty()) {
    recover(fleet);
    wal_ = std::make_unique<WalWriter>(config_.data_dir / kWalFile, config_.fsync_wal, io_);
    // A broken disk at boot is survivable: serve reads, probe for storage.
    if (!wal_->healthy()) enter_degraded(wal_->open_status());
  }
  if (!config_.repl.replicas.empty()) {
    repl_ = std::make_unique<ReplicationSender>(config_.repl.replicas, metrics_.get(),
                                                config_.repl.ack_timeout_ms);
  }
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  ::epoll_event event{};
  event.events = EPOLLIN;
  event.data.ptr = nullptr;  // the only untagged fd
  if (epoll_fd_ < 0 || wake_fd_ < 0 ||
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &event) != 0) {
    if (epoll_fd_ >= 0) ::close(epoll_fd_);  // no destructor runs after a throw
    if (wake_fd_ >= 0) ::close(wake_fd_);
    PRVM_REQUIRE(false, "cannot create the service event loop");
  }
}

void PlacementService::init_metrics() {
  obs::Registry& r = *metrics_;
  m_.placed = &r.counter("prvm_ops_placed_total");
  m_.released = &r.counter("prvm_ops_released_total");
  m_.migrated = &r.counter("prvm_ops_migrated_total");
  m_.rejected = &r.counter("prvm_ops_rejected_total");
  m_.queue_rejected = &r.counter("prvm_queue_rejected_total");
  m_.batches = &r.counter("prvm_batches_total");
  m_.snapshots = &r.counter("prvm_snapshots_total");
  m_.wal_appends = &r.counter("prvm_wal_appends_total");
  m_.replayed_records = &r.counter("prvm_replayed_records_total");
  m_.io_errors = &r.counter("prvm_io_errors_total");
  m_.degraded_transitions = &r.counter("prvm_degraded_transitions_total");
  m_.probes = &r.counter("prvm_storage_probes_total");
  m_.probe_failures = &r.counter("prvm_storage_probe_failures_total");
  m_.probe_successes = &r.counter("prvm_storage_probe_successes_total");
  for (std::size_t reason = 1; reason < m_.reject_by_reason.size(); ++reason) {
    m_.reject_by_reason[reason] = &r.counter(
        std::string("prvm_reject_") + to_string(static_cast<RejectReason>(reason)) + "_total");
  }
  m_.flush_groups = &r.counter("prvm_flush_groups_total");
  m_.repl_applied = &r.counter("prvm_repl_applied_records_total");
  m_.repl_snapshots_in = &r.counter("prvm_repl_snapshots_installed_total");
  m_.promotions = &r.counter("prvm_repl_promotions_total");
  m_.mode = &r.gauge("prvm_mode");
  m_.queue_depth = &r.gauge("prvm_queue_depth");
  m_.wal_lag = &r.gauge("prvm_wal_lag");
  m_.max_batch = &r.gauge("prvm_max_batch");
  m_.flush_queue_depth = &r.gauge("prvm_flush_queue_depth");
  m_.admission_groups = &r.gauge("prvm_admission_groups");
  m_.admission_grouped_vms = &r.gauge("prvm_admission_grouped_vms");
  m_.used_pms = &r.gauge("prvm_used_pms");
  m_.vms = &r.gauge("prvm_vms");
  m_.resident_bytes = &r.gauge("prvm_resident_bytes");
  m_.heap_in_use_bytes = &r.gauge("prvm_heap_in_use_bytes");
  m_.queue_wait_ns = &r.histogram("prvm_queue_wait_ns");
  m_.batch_size = &r.histogram("prvm_batch_size");
  m_.place_compute_ns = &r.histogram("prvm_place_compute_ns");
  m_.wal_flush_ns = &r.histogram("prvm_wal_flush_ns");
  m_.snapshot_ns = &r.histogram("prvm_snapshot_ns");
  m_.flush_group_ops = &r.histogram("prvm_flush_group_ops");
  m_.flush_lag_ns = &r.histogram("prvm_flush_lag_ns");
  m_.util_samples = &r.counter("prvm_rebal_util_samples_total");
  m_.util_unknown = &r.counter("prvm_rebal_util_unknown_total");
  m_.util_sample_pct = &r.histogram("prvm_rebal_util_sample_pct");
}

PlacementService::~PlacementService() {
  stop_now();
  ::close(wake_fd_);
  ::close(epoll_fd_);
}

void PlacementService::recover(const std::vector<std::size_t>& fleet) {
  std::optional<CellState> snapshot = load_snapshot(config_.data_dir / kSnapshotFile, catalog());
  if (snapshot.has_value()) {
    PRVM_REQUIRE(snapshot->dc.pm_count() == fleet.size() || fleet.empty(),
                 "snapshot fleet size does not match the configured fleet");
    install_snapshot(std::move(*snapshot));
    snapshot_op_seq_ = state_.op_seq;
    recovered_ = true;
  }
  const WalReadResult wal = read_wal_ex(config_.data_dir / kWalFile);
  wal_tail_ = wal.tail;
  wal_torn_tail_ = wal.tail != WalTailStatus::kClean;
  for (const WalRecord& record : wal.records) {
    if (record.op_seq <= snapshot_op_seq_) continue;  // already in the snapshot
    state_.apply(record);
    count_applied(record);
    m_.replayed_records->inc();
    recovered_ = true;
  }
}

void PlacementService::install_snapshot(CellState snapshot) {
  // Samples are not snapshot state: keep those of the PMs and of the VMs
  // the installed ledger still holds.
  snapshot.dc.copy_samples_from(state_.dc);
  state_ = std::move(snapshot);
}

void PlacementService::count_applied(const WalRecord& record) {
  if (record.type == WalRecord::Type::kPlace) m_.placed->inc();
  if (record.type == WalRecord::Type::kRelease) m_.released->inc();
  if (record.type == WalRecord::Type::kMigrate && record.pm != record.from_pm) m_.migrated->inc();
}

WalRecord& PlacementService::new_record(WalRecord::Type type, std::uint64_t vm) {
  // The reused record keeps its string/vector capacity: no per-op allocation.
  WalRecord& record = wal_record_;
  record.type = type;
  record.vm = vm;
  record.vm_type = 0;
  record.pm = 0;
  record.from_pm = 0;
  record.group.clear();
  record.assignments.clear();
  return record;
}

void PlacementService::commit(WalRecord& record) {
  record.op_seq = state_.op_seq + 1;
  state_.apply(record);
  count_applied(record);
  log_record(record);
}

void PlacementService::log_record(const WalRecord& record) {
  if (wal_ == nullptr) return;
  if (repl_ != nullptr) {
    // Leaders capture the exact frame bytes for the replication stream (the
    // follower's re-appended WAL is then byte-identical to the leader's) —
    // encode once into the stream and splice the same bytes into the WAL.
    const std::size_t at = batch_repl_frames_.size();
    append_wal_frame(record, batch_repl_frames_);
    batch_wal_bytes_ +=
        wal_->append_frames(std::string_view(batch_repl_frames_).substr(at), 1);
  } else {
    batch_wal_bytes_ += wal_->append(record);
  }
  m_.wal_appends->inc();
  wal_dirty_ = true;
}

IoStatus PlacementService::flush_wal() {
  const obs::ScopedTimerNs timer(*m_.wal_flush_ns);
  const IoStatus status = wal_->flush();
  wal_dirty_ = false;
  return status;
}

IoStatus PlacementService::take_snapshot() {
  if (config_.data_dir.empty()) return IoStatus::success();
  // Quiesce the group-commit pipeline: every queued group must be flushed
  // (and acked) before the snapshot covers its ops and reset() discards the
  // buffer. After the barrier the WAL buffer holds at most the current
  // batch's not-yet-grouped frames, which the inline flush below covers.
  flusher_barrier();
  batch_wal_bytes_ = 0;
  if (wal_ != nullptr && wal_dirty_) {
    const IoStatus status = flush_wal();
    if (!status.ok()) return status;
  }
  const IoStatus status = write_snapshot();
  if (!status.ok()) return status;
  // A failed truncate after a successful snapshot is safe for correctness
  // (op_seq gating skips the stale records on replay) but still signals a
  // failing disk — report it so the caller degrades.
  if (wal_ != nullptr) return wal_->reset();
  return IoStatus::success();
}

IoStatus PlacementService::write_snapshot() {
  IoStatus status;
  {
    const obs::ScopedTimerNs timer(*m_.snapshot_ns);
    status = save_snapshot(config_.data_dir / kSnapshotFile, state_, io_);
  }
  if (status.ok()) {
    snapshot_op_seq_ = state_.op_seq;
    m_.snapshots->inc();
  }
  return status;
}

void PlacementService::enter_degraded(const IoStatus& status) {
  m_.io_errors->inc();
  last_io_error_ = status.message();
  if (degraded_.load(std::memory_order_relaxed)) return;
  degraded_.store(true, std::memory_order_relaxed);
  m_.degraded_transitions->inc();
  m_.mode->set(2);
  probe_backoff_ms_ = std::max<std::uint64_t>(1, config_.probe_initial_ms);
  next_probe_at_ms_ = io_->now_ms() + probe_backoff_ms_;
}

Response PlacementService::degraded_reject(const Request& request) const {
  Response response = reject(request, RejectReason::kDegradedStorage,
                             "storage degraded: " + last_io_error_);
  response.retry_after_ms = config_.degraded_retry_after_ms;
  return response;
}

void PlacementService::demote_unlogged(RequestOp op, Response& response,
                                       const std::string& error_message) const {
  // repl_frames/repl_snap acks promise follower-side durability, so a
  // failed follower flush must demote them too — the leader then parks the
  // link and resyncs once this node's storage recovers.
  if (!response.ok ||
      !(changes_ledger(op) || op == RequestOp::kReplFrames || op == RequestOp::kReplSnapshot)) {
    return;
  }
  Response demoted;
  demoted.ok = false;
  demoted.op = response.op;
  demoted.vm = response.vm;
  demoted.error = to_string(RejectReason::kDegradedStorage);
  demoted.message = "decision not durable (" + error_message + "); retry once storage recovers";
  demoted.retry_after_ms = config_.degraded_retry_after_ms;
  response = std::move(demoted);
}

IoStatus PlacementService::probe_storage() {
  const std::filesystem::path probe = config_.data_dir / kProbeFile;
  const int fd = io_->open(probe.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return IoStatus::failure(-fd, "open(" + probe.string() + ")");
  static const char payload[] = "prvm storage probe\n";
  IoStatus status =
      io_write_all(*io_, fd, payload, sizeof(payload) - 1, "write(" + probe.string() + ")");
  if (status.ok()) status = io_fsync(*io_, fd, "fsync(" + probe.string() + ")");
  const IoStatus close_status = io_close(*io_, fd, "close(" + probe.string() + ")");
  if (status.ok()) status = close_status;
  std::error_code ec;
  std::filesystem::remove(probe, ec);  // best effort; a stale probe file is harmless
  return status;
}

void PlacementService::maybe_probe_storage() {
  if (!degraded_.load(std::memory_order_relaxed)) return;
  if (config_.data_dir.empty()) return;
  if (io_->now_ms() < next_probe_at_ms_) return;
  // The flusher must be idle before the snapshot and WAL truncate below —
  // while degraded it only demotes queued groups, so the barrier is short.
  flusher_barrier();
  m_.probes->inc();
  // Recovery is probe -> snapshot -> WAL truncate/reopen, in that order:
  // the fresh snapshot covers every in-memory decision (including any whose
  // flush failed and were answered degraded_storage), and only once it is
  // durable may the possibly-torn WAL be discarded.
  IoStatus status = probe_storage();
  if (status.ok()) status = write_snapshot();
  if (status.ok() && wal_ != nullptr) status = wal_->reopen_truncate();
  if (status.ok()) {
    m_.probe_successes->inc();
    batch_wal_bytes_ = 0;  // reopen_truncate discarded any buffered frames
    {
      std::lock_guard<std::mutex> lock(flush_mu_);
      flusher_status_ = IoStatus::success();
    }
    flush_failed_.store(false, std::memory_order_release);
    degraded_.store(false, std::memory_order_relaxed);
    m_.mode->set(0);
    return;
  }
  m_.probe_failures->inc();
  m_.io_errors->inc();
  last_io_error_ = status.message();
  probe_backoff_ms_ = std::min<std::uint64_t>(probe_backoff_ms_ * 2,
                                              std::max<std::uint64_t>(1, config_.probe_max_ms));
  next_probe_at_ms_ = io_->now_ms() + probe_backoff_ms_;
}

Response PlacementService::reject(const Request& request, RejectReason reason,
                                  std::string message) const {
  const auto index = static_cast<std::size_t>(reason);
  if (index > 0 && index < m_.reject_by_reason.size()) m_.reject_by_reason[index]->inc();
  Response response;
  response.ok = false;
  response.op = to_string(request.op);
  if (request.op != RequestOp::kStats && request.op != RequestOp::kDrain &&
      request.op != RequestOp::kHealth && request.op != RequestOp::kMetrics) {
    response.vm = request.vm_id;
  }
  response.error = to_string(reason);
  response.message = std::move(message);
  return response;
}

std::optional<std::size_t> PlacementService::resolve_vm_type(const Request& request) const {
  if (request.vm_type_index.has_value()) {
    if (*request.vm_type_index >= catalog().vm_types().size()) return std::nullopt;
    return static_cast<std::size_t>(*request.vm_type_index);
  }
  const auto it = vm_type_by_name_.find(request.vm_type_name);
  if (it == vm_type_by_name_.end()) return std::nullopt;
  return it->second;
}

bool PlacementService::feasible_anywhere(std::size_t vm_type,
                                         const PlacementConstraints& constraints) const {
  for (PmIndex i = 0; i < state_.dc.pm_count(); ++i) {
    if (constraints.allowed(state_.dc, i) && state_.dc.fits(i, vm_type)) return true;
  }
  return false;
}

Response PlacementService::place(const Request& request) {
  const std::optional<std::size_t> vm_type = resolve_vm_type(request);
  if (!vm_type.has_value()) {
    return reject(request, RejectReason::kUnknownVmType,
                  request.vm_type_index.has_value()
                      ? "VM type index out of range"
                      : "unknown VM type \"" + request.vm_type_name + "\"");
  }
  const VmId vm = static_cast<VmId>(request.vm_id);
  if (state_.dc.pm_of(vm).has_value()) {
    return reject(request, RejectReason::kDuplicateVm, "VM id is already placed");
  }

  const PlacementConstraints constraints = state_.admission.constraints_for(request.group);
  std::optional<PageRankVm::Pick> pick;
  {
    const obs::ScopedTimerNs timer(*m_.place_compute_ns);
    pick = engine_->pick(state_.dc, Vm{vm, *vm_type}, constraints);
  }
  if (!pick.has_value()) {
    m_.rejected->inc();
    // Distinguish "the datacenter is full" from "your anti-collocation
    // group vetoed every feasible PM" — clients react differently (scale
    // the fleet vs. relax the group). The scan only runs on this rare
    // rejection path, and only for grouped requests.
    if (!request.group.empty() && feasible_anywhere(*vm_type, PlacementConstraints{})) {
      return reject(request, RejectReason::kGroupConflict,
                    "anti-collocation group \"" + request.group +
                        "\" excludes every PM that could host this VM");
    }
    return reject(request, RejectReason::kNoCapacity, "no PM can host this VM");
  }
  WalRecord& record = new_record(WalRecord::Type::kPlace, vm);
  record.vm_type = *vm_type;
  record.pm = pick->pm;
  record.group.assign(request.group);
  record.assignments.assign(pick->assignments.begin(), pick->assignments.end());
  commit(record);

  Response response = accepted("place", request.vm_id);
  response.pm = pick->pm;
  return response;
}

Response PlacementService::release(const Request& request) {
  const VmId vm = static_cast<VmId>(request.vm_id);
  const std::optional<PmIndex> pm = state_.dc.pm_of(vm);
  if (!pm.has_value()) {
    return reject(request, RejectReason::kUnknownVm, "VM id is not placed");
  }
  WalRecord& record = new_record(WalRecord::Type::kRelease, vm);
  record.pm = *pm;
  commit(record);

  Response response = accepted("release", request.vm_id);
  response.pm = *pm;
  return response;
}

Response PlacementService::migrate(const Request& request) {
  const VmId vm = static_cast<VmId>(request.vm_id);
  const std::optional<PmIndex> old_pm = state_.dc.pm_of(vm);
  if (!old_pm.has_value()) {
    return reject(request, RejectReason::kUnknownVm, "VM id is not placed");
  }
  // The pick runs with the VM still on its source PM. The constraints
  // exclude that PM, and neither another PM's state nor the admission state
  // depends on where the VM is, so the pick is the one a remove-first order
  // would make.
  const Datacenter::PlacedVm placed = state_.dc.placed(vm);
  WalRecord& record = new_record(WalRecord::Type::kMigrate, vm);
  record.vm_type = placed.vm.type_index;
  record.from_pm = *old_pm;
  record.group.assign(state_.admission.group_of(vm));
  PlacementConstraints constraints = state_.admission.constraints_for(record.group);
  constraints.exclude = *old_pm;
  if (request.rebalance_dest_cap >= 0.0) {
    // Planner-issued migrate: the destination must stay at or under the
    // overload threshold (CloudSim's "a PM at the threshold cannot receive
    // migrants"). Chain with the group anti-collocation veto — both apply.
    const double cap = request.rebalance_dest_cap;
    const bool consolidate = request.rebalance_consolidate;
    const std::uint64_t now = obs::now_ns();
    auto group_allow = std::move(constraints.allow);
    const UtilizationCodec codec = util_codec_;
    constraints.allow = [cap, consolidate, now, codec,
                         group_allow = std::move(group_allow)](const Datacenter& dc,
                                                               PmIndex candidate) {
      if (group_allow && !group_allow(dc, candidate)) return false;
      // Consolidation packs — an empty destination would just relocate the
      // underloaded PM instead of shrinking the used set.
      if (consolidate && !dc.pm(candidate).used()) return false;
      const LoadView view(&dc, codec, now);
      return view.pm_hottest_utilization(candidate) <= cap;
    };
  }
  std::optional<PageRankVm::Pick> pick;
  {
    const obs::ScopedTimerNs timer(*m_.place_compute_ns);
    pick = engine_->pick(state_.dc, placed.vm, constraints);
  }
  if (!pick.has_value()) {
    // Put the VM back exactly where it was. The remove+place round trip IS
    // a state change (activation sequencing), so it is logged as a
    // degenerate migrate (pm == from_pm) to keep WAL replay bit-exact.
    record.pm = *old_pm;
    record.assignments.assign(placed.assignments.begin(), placed.assignments.end());
    commit(record);
    m_.rejected->inc();
    return reject(request, RejectReason::kNoCapacity,
                  "no other PM can host this VM right now");
  }
  record.pm = pick->pm;
  record.assignments.assign(pick->assignments.begin(), pick->assignments.end());
  commit(record);

  Response response = accepted("migrate", request.vm_id);
  response.pm = pick->pm;
  response.extra.emplace_back("from_pm", std::to_string(*old_pm));
  return response;
}

Response PlacementService::lookup(const Request& request) {
  const VmId vm = static_cast<VmId>(request.vm_id);
  const std::optional<PmIndex> pm = state_.dc.pm_of(vm);
  if (!pm.has_value()) {
    return reject(request, RejectReason::kUnknownVm, "VM id is not placed");
  }
  Response response = accepted("lookup", request.vm_id);
  response.pm = *pm;
  const std::string& group = state_.admission.group_of(vm);
  if (!group.empty()) response.extra.emplace_back("group", json_quote(group));
  return response;
}

// --- replication (DESIGN.md §8) ---

namespace {

/// Rejections the replication peer interprets by error string rather than
/// RejectReason (repl_gap / repl_stale / repl_lag / bad_frame). They carry
/// this node's op_seq so the leader's ack bookkeeping stays exact.
Response repl_fail(const Request& request, const char* error, std::string message,
                   std::uint64_t op_seq) {
  Response response;
  response.ok = false;
  response.op = to_string(request.op);
  response.error = error;
  response.message = std::move(message);
  response.extra.emplace_back("op_seq", std::to_string(op_seq));
  return response;
}

}  // namespace

Response PlacementService::repl_hello_response(const Request& request) {
  (void)request;
  Response response = accepted("repl_hello");
  response.extra.emplace_back("op_seq", std::to_string(state_.op_seq));
  response.extra.emplace_back(
      "role", json_quote(follower_.load(std::memory_order_relaxed) ? "follower" : "leader"));
  return response;
}

Response PlacementService::apply_repl_snapshot(const Request& request) {
  const std::uint64_t snap_seq = request.seq.value_or(0);
  if (snap_seq < state_.op_seq) {
    // This follower is ahead of the pushed snapshot: installing it would
    // roll back acknowledged state. The leader is stale; refuse.
    return repl_fail(request, "repl_stale",
                     "snapshot covers op_seq " + std::to_string(snap_seq) +
                         " but this follower is at " + std::to_string(state_.op_seq),
                     state_.op_seq);
  }
  const std::uint64_t offset = request.offset.value_or(0);
  if (offset == 0) {
    repl_snap_buffer_.clear();
    repl_snap_offset_ = 0;
  }
  if (offset != repl_snap_offset_) {
    const std::uint64_t expected = repl_snap_offset_;
    repl_snap_buffer_.clear();
    repl_snap_offset_ = 0;
    return repl_fail(request, "repl_gap",
                     "snapshot chunk at offset " + std::to_string(offset) + ", expected " +
                         std::to_string(expected),
                     state_.op_seq);
  }
  repl_snap_buffer_ += request.data;
  repl_snap_offset_ += request.data.size();
  if (!request.eof) {
    Response response = accepted("repl_snap");
    response.extra.emplace_back("op_seq", std::to_string(state_.op_seq));
    return response;
  }

  // Final chunk: parse + install the full state, then persist it as this
  // node's own snapshot so a follower crash recovers locally instead of
  // needing another catch-up.
  std::string blob;
  blob.swap(repl_snap_buffer_);
  repl_snap_offset_ = 0;
  std::optional<CellState> snapshot;
  try {
    snapshot = parse_snapshot(blob, catalog());
  } catch (const std::exception& e) {
    return repl_fail(request, "bad_frame", std::string("snapshot blob rejected: ") + e.what(),
                     state_.op_seq);
  }
  if (snapshot->dc.pm_count() != state_.dc.pm_count()) {
    return repl_fail(request, "bad_frame",
                     "snapshot fleet size " + std::to_string(snapshot->dc.pm_count()) +
                         " does not match this follower's " + std::to_string(state_.dc.pm_count()),
                     state_.op_seq);
  }
  install_snapshot(std::move(*snapshot));
  m_.repl_snapshots_in->inc();
  const IoStatus status = take_snapshot();
  if (!status.ok()) {
    enter_degraded(status);
    return repl_fail(request, "degraded_storage",
                     "installed state could not be persisted: " + status.message(), state_.op_seq);
  }
  Response response = accepted("repl_snap");
  response.extra.emplace_back("op_seq", std::to_string(state_.op_seq));
  return response;
}

Response PlacementService::apply_repl_frames(const Request& request) {
  const std::string_view raw = request.data;
  std::vector<WalRecord> records;
  std::vector<std::size_t> offsets;
  if (!decode_wal_frames(raw, records, &offsets)) {
    return repl_fail(request, "bad_frame", "frame batch failed CRC decode", state_.op_seq);
  }
  // Skip the already-applied prefix (snapshot/stream overlap), apply the
  // contiguous continuation, then re-append that run's validated raw bytes
  // to this node's WAL in ONE splice — no per-record re-encode, and byte
  // identity with the leader's log falls out by construction.
  std::size_t i = 0;
  while (i < records.size() && records[i].op_seq <= state_.op_seq) ++i;
  const std::size_t first = i;
  std::uint64_t gap_seq = 0;
  for (; i < records.size(); ++i) {
    if (records[i].op_seq != state_.op_seq + 1) {
      gap_seq = records[i].op_seq;
      break;
    }
    state_.apply(records[i]);
    count_applied(records[i]);
    m_.repl_applied->inc();
  }
  const std::size_t limit = i;
  if (limit > first && wal_ != nullptr) {
    const std::size_t end = limit < offsets.size() ? offsets[limit] : raw.size();
    batch_wal_bytes_ += wal_->append_frames(
        raw.substr(offsets[first], end - offsets[first]),
        limit - first);
    m_.wal_appends->add(limit - first);
    wal_dirty_ = true;
  }
  if (gap_seq != 0) {
    // The applied-and-logged prefix is fine — it is exactly the contiguous
    // continuation of this node's history. The leader resyncs the rest via
    // snapshot catch-up.
    return repl_fail(request, "repl_gap",
                     "frame op_seq " + std::to_string(gap_seq) + " leaves a gap after " +
                         std::to_string(state_.op_seq),
                     state_.op_seq);
  }
  Response response = accepted("repl_frames");
  response.extra.emplace_back("op_seq", std::to_string(state_.op_seq));
  return response;
}

Response PlacementService::promote_response(const Request& request) {
  if (!follower_.load(std::memory_order_relaxed)) {
    return reject(request, RejectReason::kNotFollower,
                  "this node is already a leader; promote applies to followers only");
  }
  if (request.seq.has_value() && *request.seq > state_.op_seq) {
    return repl_fail(request, "repl_lag",
                     "follower is at op_seq " + std::to_string(state_.op_seq) +
                         ", promotion requires " + std::to_string(*request.seq),
                     state_.op_seq);
  }
  follower_.store(false, std::memory_order_relaxed);
  m_.promotions->inc();
  Response response = accepted("promote");
  response.extra.emplace_back("op_seq", std::to_string(state_.op_seq));
  response.extra.emplace_back("role", json_quote("leader"));
  response.extra.emplace_back("state_digest",
                              json_quote(std::to_string(datacenter_state_digest(state_.dc))));
  return response;
}

Response PlacementService::not_leader_reject(const Request& request) const {
  Response response = reject(request, RejectReason::kNotLeader,
                             "this node is a replication follower; send writes to the leader");
  if (!config_.repl.leader_hint.empty()) {
    response.extra.emplace_back("leader", json_quote(config_.repl.leader_hint));
  }
  return response;
}

void PlacementService::demote_unreplicated(RequestOp op, Response& response) const {
  if (!response.ok || !changes_ledger(op)) return;
  m_.reject_by_reason[static_cast<std::size_t>(RejectReason::kNotReplicated)]->inc();
  Response demoted;
  demoted.ok = false;
  demoted.op = response.op;
  demoted.vm = response.vm;
  demoted.error = to_string(RejectReason::kNotReplicated);
  demoted.message =
      "replication quorum not met; the op is applied and locally durable on this leader";
  demoted.retry_after_ms = config_.retry_after_ms;
  response = std::move(demoted);
}

bool PlacementService::replicate_frames(const std::string& frames, std::uint64_t last_seq) {
  if (repl_ == nullptr) return true;
  const std::size_t need = config_.repl.ack_replicas;
  const std::size_t acked = repl_->replicate(frames, last_seq, need > 0);
  return need == 0 || acked >= need;
}

void PlacementService::maybe_send_catchup_snapshot() {
  if (repl_ == nullptr || !repl_->needs_snapshot()) return;
  // Quiesce the flusher first so the serialized state covers only locally
  // durable ops — a follower must never hold an op this leader could still
  // demote on a failed flush.
  flusher_barrier();
  if (flush_failed_.load(std::memory_order_acquire)) return;
  repl_->send_snapshot(serialize_snapshot(state_), state_.op_seq);
}

Response PlacementService::health_response() {
  Response response = accepted("health");
  std::size_t queue_depth = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_depth = inbox_.size();
  }
  const bool draining_now = draining();
  const bool degraded_now = degraded_.load(std::memory_order_relaxed);
  const char* mode = degraded_now ? "degraded" : (draining_now ? "draining" : "ok");
  // Keep the gauges honest even when nobody scrapes between batches.
  m_.mode->set(degraded_now ? 2 : (draining_now ? 1 : 0));
  m_.queue_depth->set(static_cast<std::int64_t>(queue_depth));
  m_.wal_lag->set(static_cast<std::int64_t>(state_.op_seq - snapshot_op_seq_));
  response.extra.emplace_back("mode", json_quote(mode));
  // Deployment identity: multi-cell members report their cell id; a
  // standalone daemon reports the default (cell 0, role "single").
  // Replication overrides: a follower says so (routers/failover probes key
  // off this), and a replicating or promoted node reports "leader".
  const bool follower_now = follower_.load(std::memory_order_relaxed);
  const bool repl_leader = repl_ != nullptr || (config_.repl.follower && !follower_now);
  const char* role = follower_now            ? "follower"
                     : repl_leader           ? "leader"
                     : config_.cell_id.has_value() ? "cell"
                                                   : "single";
  response.extra.emplace_back("cell_id", std::to_string(config_.cell_id.value_or(0)));
  response.extra.emplace_back("role", json_quote(role));
  if (follower_now && !config_.repl.leader_hint.empty()) {
    response.extra.emplace_back("leader", json_quote(config_.repl.leader_hint));
  }
  if (repl_ != nullptr) {
    response.extra.emplace_back("repl_links", std::to_string(repl_->link_count()));
    response.extra.emplace_back("repl_streaming", std::to_string(repl_->streaming_links()));
  }
  response.extra.emplace_back("queue_depth", std::to_string(queue_depth));
  // Ops acknowledged since the last durable snapshot = replay work a crash
  // right now would need (and the WAL bytes a degraded disk is holding up).
  response.extra.emplace_back("wal_lag", std::to_string(state_.op_seq - snapshot_op_seq_));
  response.extra.emplace_back("op_seq", std::to_string(state_.op_seq));
  response.extra.emplace_back("degraded_entries",
                              std::to_string(m_.degraded_transitions->value()));
  response.extra.emplace_back("storage_probes", std::to_string(m_.probes->value()));
  response.extra.emplace_back("io_errors", std::to_string(m_.io_errors->value()));
  response.extra.emplace_back("last_error", json_quote(last_io_error_));
  response.extra.emplace_back(
      "rebalance", json_quote(planner_ != nullptr ? planner_->state_name() : "off"));
  response.extra.emplace_back(
      "rebalance_last_moves",
      std::to_string(planner_ != nullptr ? planner_->last_round_moves() : 0));
  if (degraded_now) response.retry_after_ms = config_.degraded_retry_after_ms;
  return response;
}

Response PlacementService::util_response(const Request& request) {
  Response response;
  response.op = "util";
  const std::uint64_t sample = util_codec_.pack(request.cpu, obs::now_ns());
  if (request.pm.has_value()) {
    if (*request.pm >= state_.dc.pm_count()) {
      response.ok = false;
      response.error = "bad_field";
      response.message = "pm index out of range";
      return response;
    }
    state_.dc.set_pm_sample(static_cast<PmIndex>(*request.pm), sample);
  } else {
    // A sample for an id the ledger does not hold (never placed, already
    // released, a stray feed) has no slot to live in: count it, store nothing.
    if (!state_.dc.set_vm_sample(static_cast<VmId>(request.vm_id), sample)) m_.util_unknown->inc();
    response.vm = request.vm_id;
  }
  m_.util_samples->inc();
  m_.util_sample_pct->record(
      static_cast<std::uint64_t>(std::lround(std::max(0.0, request.cpu) * 100.0)));
  response.ok = true;
  return response;
}

Response PlacementService::rebalance_response(const Request& request) const {
  Response response;
  response.op = "rebalance";
  const bool status_only = request.action.empty() || request.action == "status";
  if (planner_ == nullptr) {
    if (status_only) {
      response.ok = true;
      response.extra.emplace_back("state", json_quote("off"));
      return response;
    }
    response.ok = false;
    response.error = "rebalance_disabled";
    response.message = "daemon started without --rebalance";
    return response;
  }
  if (request.action == "pause") planner_->pause();
  else if (request.action == "resume") planner_->resume();
  else if (request.action == "trigger") planner_->trigger();
  const RebalanceStatus st = planner_->status();
  response.ok = true;
  response.extra.emplace_back("state", json_quote(st.state));
  response.extra.emplace_back("rounds", std::to_string(st.rounds));
  response.extra.emplace_back("last_round_moves", std::to_string(st.last_round_moves));
  response.extra.emplace_back("total_moves", std::to_string(st.total_moves));
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", config_.rebalance.overload_threshold);
  response.extra.emplace_back("overload", buf);
  std::snprintf(buf, sizeof(buf), "%g", config_.rebalance.underload_threshold);
  response.extra.emplace_back("underload", buf);
  response.extra.emplace_back("max_moves",
                              std::to_string(config_.rebalance.max_moves_per_round));
  return response;
}

Response PlacementService::rebalance_scan_response(const Request& request) {
  Response response;
  response.op = "rebalance_scan";
  if (request.scan_sink == nullptr) {
    response.ok = false;
    response.error = "bad_field";
    response.message = "rebalance_scan without a sink";
    return response;
  }
  // Worker thread owns the ledger, so this copy is a consistent frozen snapshot.
  request.scan_sink->leader = !follower_.load(std::memory_order_relaxed);
  request.scan_sink->degraded = degraded_.load(std::memory_order_relaxed);
  request.scan_sink->dc = state_.dc;
  response.ok = true;
  return response;
}

Response PlacementService::stats_response() {
  Response response = accepted("stats");
  const auto add = [&response](const char* key, std::uint64_t value) {
    response.extra.emplace_back(key, std::to_string(value));
  };
  add("used_pms", state_.dc.used_count());
  add("pm_count", state_.dc.pm_count());
  add("vm_count", state_.dc.vm_count());
  add("placed", m_.placed->value());
  add("released", m_.released->value());
  add("migrated", m_.migrated->value());
  add("rejected", m_.rejected->value());
  add("queue_rejected", m_.queue_rejected->value());
  add("batches", m_.batches->value());
  add("max_batch", static_cast<std::uint64_t>(m_.max_batch->value()));
  add("snapshots", m_.snapshots->value());
  add("replayed_records", m_.replayed_records->value());
  add("op_seq", state_.op_seq);
  add("admission_groups", state_.admission.group_count());
  add("grouped_vms", state_.admission.grouped_vm_count());
  // 64-bit digest goes out as a string: JSON numbers lose precision > 2^53.
  response.extra.emplace_back("state_digest",
                              json_quote(std::to_string(datacenter_state_digest(state_.dc))));
  response.extra.emplace_back("recovered", recovered_ ? "true" : "false");
  response.extra.emplace_back("wal_torn_tail", wal_torn_tail_ ? "true" : "false");
  response.extra.emplace_back("wal_tail", json_quote(to_string(wal_tail_)));
  response.extra.emplace_back(
      "role", json_quote(follower_.load(std::memory_order_relaxed) ? "follower" : "leader"));
  response.extra.emplace_back("draining", draining() ? "true" : "false");
  response.extra.emplace_back(
      "mode", json_quote(degraded_.load(std::memory_order_relaxed) ? "degraded" : "ok"));
  add("io_errors", m_.io_errors->value());
  return response;
}

void PlacementService::refresh_memory_gauges() {
  const MemoryUse use = read_memory_use();
  m_.resident_bytes->set(static_cast<std::int64_t>(use.resident_bytes));
  m_.heap_in_use_bytes->set(static_cast<std::int64_t>(use.heap_in_use_bytes));
}

Response PlacementService::metrics_response() {
  refresh_memory_gauges();
  Response response = accepted("metrics");
  response.extra.emplace_back("metrics", metrics_->render_json());
  return response;
}

Response PlacementService::drain_response() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    draining_.store(true, std::memory_order_relaxed);
  }
  const IoStatus status = take_snapshot();
  Response response;
  response.op = "drain";
  if (status.ok()) {
    response.ok = true;
  } else {
    // Still draining — but tell the client the final snapshot is not down.
    // The per-batch WAL flushes already made every acknowledged op durable,
    // so recovery falls back to snapshot + WAL replay.
    enter_degraded(status);
    response.ok = false;
    response.error = to_string(RejectReason::kDegradedStorage);
    response.message = status.message();
  }
  response.extra.emplace_back("op_seq", std::to_string(state_.op_seq));
  return response;
}

Response PlacementService::execute_locked(const Request& request) {
  switch (request.op) {
    case RequestOp::kStats: return stats_response();
    case RequestOp::kHealth: return health_response();
    case RequestOp::kMetrics: return metrics_response();
    case RequestOp::kLookup: return lookup(request);
    case RequestOp::kDrain: return drain_response();
    // The handshake is read-only and must work in every mode — a leader
    // probing a degraded follower needs the truthful op_seq to decide
    // between streaming and catch-up.
    case RequestOp::kReplHello: return repl_hello_response(request);
    // Utilization samples touch only the ledger's sample words, planner
    // control never touches it, and the scan answers truthfully
    // (leader/degraded flags) in every mode so the planner can decide to
    // stand down on its own.
    case RequestOp::kUtil: return util_response(request);
    case RequestOp::kRebalance: return rebalance_response(request);
    case RequestOp::kRebalanceScan: return rebalance_scan_response(request);
    default: break;
  }
  if (draining()) {
    return reject(request, RejectReason::kDraining, "daemon is draining");
  }
  // Promotion changes only the role flag, never storage, so it is legal
  // even while degraded — the promoted leader stays read-only until its
  // disk recovers, exactly like any other degraded leader.
  if (request.op == RequestOp::kPromote) return promote_response(request);
  // Read-only degraded mode: no mutation may happen while its WAL record
  // could not be made durable. Rejecting BEFORE the engine runs keeps the
  // in-memory ledger aligned with what clients were told.
  if (degraded_.load(std::memory_order_relaxed)) {
    return degraded_reject(request);
  }
  if (follower_.load(std::memory_order_relaxed)) {
    switch (request.op) {
      case RequestOp::kReplSnapshot: return apply_repl_snapshot(request);
      case RequestOp::kReplFrames: return apply_repl_frames(request);
      default: return not_leader_reject(request);
    }
  }
  if (request.op == RequestOp::kReplSnapshot || request.op == RequestOp::kReplFrames) {
    return reject(request, RejectReason::kNotFollower,
                  "this node is not a replication follower");
  }
  switch (request.op) {
    case RequestOp::kPlace: return place(request);
    case RequestOp::kRelease: return release(request);
    case RequestOp::kMigrate: return migrate(request);
    default: break;
  }
  return reject(request, RejectReason::kNone, "unreachable");
}

Response PlacementService::execute(const Request& request) {
  maybe_probe_storage();
  Response response = execute_locked(request);
  if (wal_ != nullptr && wal_dirty_) {
    const IoStatus status = flush_wal();
    if (!status.ok()) {
      enter_degraded(status);
      demote_unlogged(request.op, response, last_io_error_);
    }
  }
  if (repl_ != nullptr) {
    if (!degraded_.load(std::memory_order_relaxed)) {
      if (!replicate_frames(batch_repl_frames_, state_.op_seq)) {
        demote_unreplicated(request.op, response);
      }
      maybe_send_catchup_snapshot();
    }
    batch_repl_frames_.clear();
  }
  return response;
}

void PlacementService::wake() const {
  const std::uint64_t one = 1;
  // Only a saturated counter could fail, and that still leaves it readable.
  [[maybe_unused]] const ::ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

std::future<Response> PlacementService::submit(Request request) {
  // Planner control touches only lock-free state, so answer it right here
  // on the caller's thread. Everything that reads the ledger queues,
  // utilization samples included: their VM id is checked against it.
  if (request.op == RequestOp::kRebalance) {
    std::promise<Response> promise;
    promise.set_value(rebalance_response(request));
    return promise.get_future();
  }
  // Resolve a textual VM type here so the loop never touches the name map.
  // The map is immutable after construction, so concurrent lookups are
  // safe; unknown names stay unresolved and are rejected by the loop with
  // the exact same error as before.
  if (request.op == RequestOp::kPlace && !request.vm_type_index.has_value()) {
    const auto it = vm_type_by_name_.find(request.vm_type_name);
    if (it != vm_type_by_name_.end()) request.vm_type_index = it->second;
  }
  std::promise<Response> promise;
  std::future<Response> future = promise.get_future();
  bool queued = false;
  bool was_empty = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (draining() || stop_) {
      lock.unlock();
      promise.set_value(reject(request, RejectReason::kDraining, "daemon is draining"));
      return future;
    }
    if (inbox_.size() < config_.queue_capacity) {
      was_empty = inbox_.empty();
      inbox_.push_back(Pending{std::move(request), std::move(promise), obs::now_ns()});
      queued = true;
    } else {
      m_.queue_rejected->inc();
    }
  }
  if (queued) {
    // Only the empty -> non-empty edge wakes the loop (after the
    // unlock, so it does not wake into a held lock); the loop keeps polling
    // while a backlog remains.
    if (was_empty) wake();
    return future;
  }
  Response response = reject(request, RejectReason::kQueueFull, "request queue is full");
  response.retry_after_ms = config_.retry_after_ms;
  promise.set_value(std::move(response));
  return future;
}

void PlacementService::attach(CellServer& server, int listen_fd) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    PRVM_REQUIRE(server_.load(std::memory_order_relaxed) == nullptr,
                 "a service serves one CellServer at a time");
    server_.store(&server, std::memory_order_release);
  }
  ::epoll_event event{};
  event.events = EPOLLIN;
  event.data.ptr = &server;
  PRVM_REQUIRE(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd, &event) == 0,
               "cannot register the listener with the service loop");
}

void PlacementService::detach(CellServer& server) {
  std::unique_lock<std::mutex> lock(mu_);
  if (server_.load(std::memory_order_relaxed) != &server) return;
  if (loop_active_) {
    // Only the loop may touch its connections: hand it the close.
    detach_requested_ = true;
    wake();
    detached_cv_.wait(lock, [&] { return server_.load(std::memory_order_relaxed) != &server; });
    return;
  }
  server.close_all();
  server_.store(nullptr, std::memory_order_release);
}

void PlacementService::detach_server_now() {
  if (CellServer* server = server_.load(std::memory_order_acquire)) {
    // Every response a connection is owed must be out of the flush pipeline
    // before its connection object goes away.
    flusher_barrier();
    release_flushed();
    server->send_pending();
    server->close_all();
  }
  std::lock_guard<std::mutex> lock(mu_);
  server_.store(nullptr, std::memory_order_release);
  detach_requested_ = false;
  detached_cv_.notify_all();
}

void PlacementService::start_flusher() {
  // A flush that waits on fsync or on a follower's ack is worth overlapping
  // with the next pass; a page-cache write() is cheaper inline than the
  // hand-off to another thread (DESIGN.md §6).
  if (wal_ == nullptr || (!config_.fsync_wal && config_.repl.replicas.empty())) return;
  if (flusher_running_) return;
  flusher_stop_ = false;
  flusher_running_ = true;
  flusher_ = std::thread([this] { flusher_loop(); });
}

void PlacementService::stop_flusher() {
  if (!flusher_running_) return;
  {
    std::lock_guard<std::mutex> lock(flush_mu_);
    flusher_stop_ = true;
  }
  flush_cv_.notify_one();
  flusher_.join();
  flusher_running_ = false;
  flusher_stop_ = false;
}

void PlacementService::flusher_barrier() {
  if (!flusher_running_) return;
  std::unique_lock<std::mutex> lock(flush_mu_);
  flush_idle_cv_.wait(lock, [this] { return flush_queue_.empty() && !flusher_busy_; });
}

void PlacementService::flusher_loop() {
  std::vector<FlushGroup> covered;
  while (true) {
    covered.clear();
    std::size_t ops = 0;
    std::size_t bytes = 0;
    {
      std::unique_lock<std::mutex> lock(flush_mu_);
      flush_cv_.wait(lock, [this] { return flusher_stop_ || !flush_queue_.empty(); });
      if (flush_queue_.empty() && flusher_stop_) return;
      // Coalesce every group queued since the last flush.
      for (FlushGroup& group : flush_queue_) {
        ops += group.ops;
        bytes += group.wal_bytes;
        covered.push_back(std::move(group));
      }
      flush_queue_.clear();
      flusher_busy_ = true;
    }

    // One fsync covers every op of every coalesced group. After a failure
    // the flusher stops touching the device — the loop drives probes and
    // recovery — and every group still in flight is demoted truthfully.
    FlushDone done;
    done.seq = covered.back().seq;
    if (!flush_failed_.load(std::memory_order_acquire)) {
      if (bytes > 0) {
        const obs::ScopedTimerNs timer(*m_.wal_flush_ns);
        const IoStatus status = wal_->flush(bytes);
        if (!status.ok()) {
          {
            std::lock_guard<std::mutex> lock(flush_mu_);
            flusher_status_ = status;
          }
          done.failure = status.message();
          flush_failed_.store(true, std::memory_order_release);
        }
      }
    } else {
      std::lock_guard<std::mutex> lock(flush_mu_);
      done.failure = flusher_status_.message();
    }
    m_.flush_groups->inc();
    m_.flush_group_ops->record(ops);

    // Replication rides the flusher: stream the (now locally durable)
    // frames of every coalesced group in one call, then — when an ack
    // quorum is configured — report whether enough followers confirmed.
    if (repl_ != nullptr && done.failure.empty()) {
      std::string frames;
      for (const FlushGroup& group : covered) frames += group.repl_frames;
      done.replicated = replicate_frames(frames, covered.back().last_seq);
    }

    const std::uint64_t acked_ns = obs::now_ns();
    for (const FlushGroup& group : covered) {
      m_.flush_lag_ns->record(acked_ns > group.computed_ns ? acked_ns - group.computed_ns : 0);
    }

    std::size_t depth = 0;
    {
      std::lock_guard<std::mutex> lock(flush_mu_);
      flush_done_.push_back(std::move(done));
      flusher_busy_ = false;
      depth = flush_queue_.size();
      if (flush_queue_.empty()) flush_idle_cv_.notify_all();
    }
    m_.flush_queue_depth->set(static_cast<std::int64_t>(depth));
    wake();  // the loop releases the covered acks
  }
}

void PlacementService::release_flushed() {
  {
    std::lock_guard<std::mutex> lock(flush_mu_);
    if (flush_done_.empty()) return;
    done_scratch_.swap(flush_done_);
  }
  for (const FlushDone& done : done_scratch_) {
    while (!awaiting_.empty() && awaiting_.front().group <= done.seq) {
      Outbox& box = awaiting_.front();
      if (box.own_group) {
        for (Job& job : box.jobs) {
          if (!done.failure.empty()) {
            demote_unlogged(job.request.op, job.response, done.failure);
          } else if (!done.replicated) {
            demote_unreplicated(job.request.op, job.response);
          }
        }
      }
      deliver(box);
      spare_.push_back(std::move(box));
      awaiting_.pop_front();
    }
  }
  done_scratch_.clear();
}

void PlacementService::deliver(Outbox& box) {
  CellServer* server = server_.load(std::memory_order_relaxed);
  auto promise = box.promises.begin();
  for (Job& job : box.jobs) {
    if (job.conn != nullptr) {
      server->deliver(job.conn, job.response);
    } else {
      (promise++)->set_value(std::move(job.response));
    }
  }
  box.jobs.clear();
  box.promises.clear();
}

void PlacementService::start() {
  start_flusher();  // before the loop exists: it reads flusher_running_ locklessly
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (worker_running_) return;
    stop_ = false;
    worker_running_ = true;
    loop_active_ = true;
    worker_ = std::thread([this] { worker_loop(); });
  }
  // The planner scans through the inbox, so it only runs while the loop
  // does (start() is idempotent and so is planner start()).
  if (planner_ != nullptr) planner_->start();
}

bool PlacementService::take_inbox(bool& inbox_backlog) {
  bool detach_now = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return true;
    detach_now = detach_requested_;
    const std::size_t take = std::min(config_.batch_size, inbox_.size());
    for (std::size_t i = 0; i < take; ++i) {
      Pending& pending = inbox_.front();
      Job& job = pass_.jobs.emplace_back();
      job.request = std::move(pending.request);
      job.decoded_ns = pending.enqueued_ns;
      pass_.promises.push_back(std::move(pending.promise));
      inbox_.pop_front();
    }
    inbox_backlog = !inbox_.empty();
    m_.queue_depth->set(static_cast<std::int64_t>(inbox_.size()));
    if (!inbox_backlog) drained_cv_.notify_all();
  }
  if (detach_now) detach_server_now();
  return false;
}

void PlacementService::worker_loop() {
  // Establish replication links before traffic; a follower that is behind
  // gets its catch-up snapshot now rather than on the first flush.
  if (repl_ != nullptr) {
    repl_->connect_all(state_.op_seq);
    maybe_send_catchup_snapshot();
  }

  std::array<::epoll_event, 64> events;
  bool inbox_backlog = false;
  bool backlog = false;
  while (true) {
    // Block when idle; poll while decoded work is left over; wake for the
    // next storage probe or accept retry.
    int timeout_ms = -1;
    if (!backlog) {
      if (degraded_.load(std::memory_order_relaxed)) {
        const std::uint64_t now = io_->now_ms();
        timeout_ms = static_cast<int>(
            std::clamp<std::uint64_t>(next_probe_at_ms_ > now ? next_probe_at_ms_ - now : 1, 1,
                                      60000));
      }
      if (const CellServer* server = server_.load(std::memory_order_acquire)) {
        const int server_ms = server->timeout_ms();
        if (server_ms >= 0 && (timeout_ms < 0 || server_ms < timeout_ms)) {
          timeout_ms = server_ms;
        }
      }
    } else {
      timeout_ms = 0;
    }
    int ready = ::epoll_wait(epoll_fd_, events.data(), static_cast<int>(events.size()),
                             timeout_ms);
    if (ready < 0) ready = 0;  // EINTR: just run the pass

    bool woke = false;
    for (int i = 0; i < ready; ++i) {
      if (events[i].data.ptr == nullptr) {
        std::uint64_t count = 0;
        [[maybe_unused]] const ::ssize_t n = ::read(wake_fd_, &count, sizeof(count));
        woke = true;
      }
    }
    CellServer* const before = server_.load(std::memory_order_relaxed);
    if (woke || inbox_backlog) {
      if (take_inbox(inbox_backlog)) break;
      release_flushed();
    }

    CellServer* server = server_.load(std::memory_order_acquire);
    if (server != nullptr) {
      // A detach this pass freed the connections these events point at.
      if (server == before) {
        for (int i = 0; i < ready; ++i) {
          if (events[i].data.ptr != nullptr) server->on_event(events[i].data.ptr, events[i].events);
        }
      }
      server->collect(pass_.jobs, config_.batch_size);
    }

    run_pass();
    if (server != nullptr) server->send_pending();
    // Only after the sends: a connection whose output just drained resumes
    // with frames already buffered in user space, and no epoll event will
    // report those.
    backlog = inbox_backlog || (server != nullptr && server->has_backlog());
  }

  // Exit: settle the pipeline so every executed request is answered, then
  // fail what is still queued and release the connections.
  flusher_barrier();
  release_flushed();
  std::deque<Pending> leftover;
  {
    std::lock_guard<std::mutex> lock(mu_);
    loop_active_ = false;
    leftover.swap(inbox_);
    if (CellServer* server = server_.load(std::memory_order_relaxed)) {
      server->send_pending();
      server->close_all();
      server_.store(nullptr, std::memory_order_release);
    }
    detach_requested_ = false;
    detached_cv_.notify_all();
    drained_cv_.notify_all();
  }
  for (Pending& pending : leftover) {
    pending.promise.set_value(
        reject(pending.request, RejectReason::kDraining, "daemon stopped"));
  }
}

void PlacementService::run_pass() {
  // A group flush failed since the last pass: let the flusher finish
  // settling what it still holds, then take its status as the degraded-mode
  // trigger (same transition an inline flush failure makes).
  if (flush_failed_.load(std::memory_order_acquire) &&
      !degraded_.load(std::memory_order_relaxed)) {
    flusher_barrier();
    release_flushed();
    IoStatus status;
    {
      std::lock_guard<std::mutex> lock(flush_mu_);
      status = flusher_status_;
    }
    enter_degraded(status);
  }

  maybe_probe_storage();

  // A link parked itself (gap, follower restart, rejection) since the last
  // pass: only this thread may serialize the authoritative state.
  if (repl_ != nullptr && !degraded_.load(std::memory_order_relaxed)) {
    maybe_send_catchup_snapshot();
  }

  std::vector<Job>& jobs = pass_.jobs;
  if (jobs.empty()) return;

  // One clock read covers the pass: queue wait runs from a request's recv
  // (or submit) to the start of the pass that executes it.
  const std::uint64_t start_ns = obs::now_ns();
  for (const Job& job : jobs) {
    m_.queue_wait_ns->record(start_ns > job.decoded_ns ? start_ns - job.decoded_ns : 0);
  }
  for (Job& job : jobs) {
    if (!job.answered) job.response = execute_locked(job.request);
  }
  const std::size_t count = jobs.size();

  // Durability barrier: every decision of this pass hits the log BEFORE any
  // acknowledgement leaves. Pipelined, the flusher owns that barrier: it
  // flushes the group's frames (coalescing neighbors) and posts the result
  // back, while this thread already computes the next pass. Inline (no
  // flusher, or degraded), flush-then-ack happens right here; a failed
  // flush demotes the would-be acks and suspends writes.
  const bool pipelined = flusher_running_ && !degraded_.load(std::memory_order_relaxed);
  if (pipelined) {
    FlushGroup group;
    group.seq = ++last_group_;
    group.ops = count;
    group.wal_bytes = batch_wal_bytes_;
    group.computed_ns = obs::now_ns();
    group.repl_frames = std::move(batch_repl_frames_);
    group.last_seq = state_.op_seq;
    batch_wal_bytes_ = 0;
    batch_repl_frames_.clear();
    std::size_t depth = 0;
    {
      std::lock_guard<std::mutex> lock(flush_mu_);
      flush_queue_.push_back(std::move(group));
      depth = flush_queue_.size();
    }
    m_.flush_queue_depth->set(static_cast<std::int64_t>(depth));
    flush_cv_.notify_one();
    pass_.group = last_group_;
    pass_.own_group = true;
  } else {
    if (wal_ != nullptr && wal_dirty_) {
      const IoStatus status = flush_wal();
      if (!status.ok()) {
        enter_degraded(status);
        for (Job& job : jobs) demote_unlogged(job.request.op, job.response, last_io_error_);
      }
    }
    batch_wal_bytes_ = 0;
    // Every leader runs the flusher, so a leader lands here only degraded,
    // and a degraded leader does not replicate.
    batch_repl_frames_.clear();
    pass_.group = last_group_;
    pass_.own_group = false;
  }
  if (pipelined || !awaiting_.empty()) {
    // Acks wait for their own group — or, to keep per-connection order,
    // behind the groups still in flight.
    awaiting_.push_back(std::move(pass_));
    pass_ = Outbox{};
    if (!spare_.empty()) {
      pass_ = std::move(spare_.back());
      spare_.pop_back();
    }
  } else {
    deliver(pass_);
  }
  m_.batches->inc();
  m_.batch_size->record(count);
  m_.max_batch->set_max(static_cast<std::int64_t>(count));
  m_.wal_lag->set(static_cast<std::int64_t>(state_.op_seq - snapshot_op_seq_));
  m_.admission_groups->set(static_cast<std::int64_t>(state_.admission.group_count()));
  m_.admission_grouped_vms->set(static_cast<std::int64_t>(state_.admission.grouped_vm_count()));
  m_.used_pms->set(static_cast<std::int64_t>(state_.dc.used_count()));
  m_.vms->set(static_cast<std::int64_t>(state_.dc.vm_count()));

  if (config_.snapshot_every_ops > 0 && !degraded_.load(std::memory_order_relaxed) &&
      state_.op_seq - snapshot_op_seq_ >= config_.snapshot_every_ops) {
    const IoStatus status = take_snapshot();
    if (!status.ok()) enter_degraded(status);
  }
}

void PlacementService::drain() {
  // Planner first, while the loop is still alive: its in-flight round gets
  // real answers (or a truthful draining rejection) instead of a futures
  // deadlock against a loop that already exited.
  if (planner_ != nullptr) planner_->stop();
  {
    std::unique_lock<std::mutex> lock(mu_);
    draining_.store(true, std::memory_order_relaxed);
    if (worker_running_) {
      drained_cv_.wait(lock, [this] { return inbox_.empty(); });
      stop_ = true;
      wake();
    }
  }
  if (worker_.joinable()) worker_.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    worker_running_ = false;
  }
  // The loop settled the flush pipeline on exit; join the idle flusher
  // before the final snapshot.
  stop_flusher();
  // Best effort: if the final snapshot fails, the per-pass WAL flushes
  // already cover every acknowledged op, so the next boot replays instead
  // of starting from the snapshot alone.
  const IoStatus status = take_snapshot();
  if (!status.ok()) enter_degraded(status);
}

void PlacementService::stop_now() {
  if (planner_ != nullptr) planner_->stop();  // same ordering as drain()
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!worker_running_ && !worker_.joinable()) return;
    stop_ = true;
    draining_.store(true, std::memory_order_relaxed);
    wake();
  }
  if (worker_.joinable()) worker_.join();
  stop_flusher();
  std::lock_guard<std::mutex> lock(mu_);
  worker_running_ = false;
}

ServiceStats PlacementService::stats() const {
  // Counters live in the registry (atomic, readable any time); the plain
  // members are loop-owned, so this copy is only guaranteed consistent
  // when the loop is stopped (tests) or via the in-band stats op.
  std::lock_guard<std::mutex> lock(mu_);
  ServiceStats copy;
  copy.placed = m_.placed->value();
  copy.released = m_.released->value();
  copy.migrated = m_.migrated->value();
  copy.rejected = m_.rejected->value();
  copy.queue_rejected = m_.queue_rejected->value();
  copy.batches = m_.batches->value();
  copy.max_batch = static_cast<std::uint64_t>(m_.max_batch->value());
  copy.snapshots = m_.snapshots->value();
  copy.replayed_records = m_.replayed_records->value();
  copy.op_seq = state_.op_seq;
  copy.recovered = recovered_;
  copy.wal_torn_tail = wal_torn_tail_;
  copy.wal_tail = wal_tail_;
  copy.follower = follower_.load(std::memory_order_relaxed);
  copy.degraded = degraded_.load(std::memory_order_relaxed);
  copy.degraded_entries = m_.degraded_transitions->value();
  copy.storage_probes = m_.probes->value();
  copy.io_errors = m_.io_errors->value();
  copy.last_io_error = last_io_error_;
  return copy;
}

bool PlacementService::degraded() const { return degraded_.load(std::memory_order_relaxed); }

}  // namespace prvm
