#include "router/router.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <thread>
#include <utility>

#include "cells/topology.hpp"
#include "common/check.hpp"
#include "router/cell_channel.hpp"
#include "service/admission.hpp"

namespace prvm {

namespace {

/// Whole-string unsigned parse; stats merging sums only clean integers.
bool parse_u64(const std::string& text, unsigned long long* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end != text.c_str() + text.size()) return false;
  *out = v;
  return true;
}

int mode_severity(const std::string& quoted_mode) {
  if (quoted_mode == "\"degraded\"") return 2;
  if (quoted_mode == "\"draining\"") return 1;
  return 0;
}

const char* mode_name(int severity) {
  switch (severity) {
    case 2: return "degraded";
    case 1: return "draining";
    default: return "ok";
  }
}

}  // namespace

Router::Router(std::vector<RequestSink*> cells, RouterConfig config)
    : cells_(std::move(cells)),
      config_(std::move(config)),
      metrics_(config_.metrics ? config_.metrics
                               : std::make_shared<obs::Registry>()) {
  PRVM_REQUIRE(!cells_.empty(), "router needs at least one cell");
  for (RequestSink* cell : cells_) PRVM_REQUIRE(cell != nullptr, "null cell");
  m_.requests = &metrics_->counter("prvm_router_requests_total");
  m_.fanout_requests = &metrics_->counter("prvm_router_fanout_requests_total");
  m_.fanout_ops = &metrics_->counter("prvm_router_fanout_ops_total");
  m_.spillover = &metrics_->counter("prvm_router_spillover_total");
  m_.compensations = &metrics_->counter("prvm_router_compensations_total");
  m_.cell_unreachable = &metrics_->counter("prvm_router_cell_unreachable_total");
  m_.retries = &metrics_->counter("prvm_router_retries_total");
}

Router::~Router() {
  if (journal_fd_ >= 0) ::close(journal_fd_);
}

Response Router::retry_unreachable(std::size_t cell, const Request& request, Response failed) {
  Response r = std::move(failed);
  std::size_t attempt = 0;
  while (!r.ok && r.error == kCellUnreachable) {
    m_.cell_unreachable->inc();
    if (attempt >= config_.retry_attempts) break;
    m_.retries->inc();
    // Linear backoff: the dominant cause is a cell mid-restart or
    // mid-failover; each re-submit re-enters the channel, which is where a
    // FailoverCellChannel reconnects or promotes a replica.
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        config_.retry_backoff_ms * static_cast<double>(attempt + 1)));
    m_.fanout_requests->inc();
    r = cells_[cell]->submit(request).get();
    ++attempt;
  }
  return r;
}

Response Router::cell_call(std::size_t cell, const Request& request) {
  m_.fanout_requests->inc();
  return retry_unreachable(cell, request, cells_[cell]->submit(request).get());
}

std::optional<std::size_t> Router::cell_of(std::uint64_t vm) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = vm_map_.find(vm);
  if (it == vm_map_.end()) return std::nullopt;
  return it->second;
}

std::size_t Router::vm_map_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return vm_map_.size();
}

bool Router::save_vm_map(const std::filesystem::path& path) {
  // Appends wait until the compacted file is in place and reopened, so
  // every line lands either in the blob or after it in the new file.
  std::lock_guard<std::mutex> journal_lock(journal_mu_);
  std::string blob;
  std::size_t count = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    count = vm_map_.size();
    for (const auto& [vm, cell] : vm_map_) {
      blob += std::to_string(vm);
      blob += ' ';
      blob += std::to_string(cell);
      blob += '\n';
    }
  }
  const std::filesystem::path tmp = path.string() + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os.is_open()) return false;
    os << "PRVMMAP1 " << count << "\n" << blob;
    if (!os.good()) return false;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) return false;
  if (journal_fd_ >= 0) ::close(journal_fd_);
  journal_fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  return journal_fd_ >= 0;
}

bool Router::update_map(std::uint64_t vm, std::optional<std::size_t> cell,
                        std::size_t via_cell) {
  // A VM off its hash cell is journaled: a router restarted from an older
  // map would send a retry of it to the hash cell, which may have room by
  // then. The journal lock is taken first, so lines keep the map's order.
  const bool off_hash = via_cell != cell_of_vm(vm, cells_.size());
  std::unique_lock<std::mutex> journal_lock(journal_mu_, std::defer_lock);
  if (off_hash) journal_lock.lock();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!cell.has_value()) {
      vm_map_.erase(vm);
    } else if (!vm_map_.try_emplace(vm, *cell).second) {
      return false;
    }
  }
  if (off_hash && journal_fd_ >= 0) {
    const std::string line =
        std::to_string(vm) + (cell.has_value() ? " " + std::to_string(*cell) : " -") + "\n";
    // A failed write loses only this line; the next save restores it.
    static_cast<void>(::write(journal_fd_, line.data(), line.size()));
  }
  return true;
}

bool Router::load_vm_map(const std::filesystem::path& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is.is_open()) return false;
  std::string line;
  unsigned long long count = 0;
  if (!std::getline(is, line) || is.eof() || line.rfind("PRVMMAP1 ", 0) != 0 ||
      !parse_u64(line.substr(9), &count)) {
    return false;
  }
  std::unordered_map<std::uint64_t, std::size_t> loaded;
  unsigned long long lines = 0;
  for (; std::getline(is, line); ++lines) {
    const bool saved = lines < count;
    // A journal append cut short by a killed router has no newline.
    if (is.eof() && !saved) break;
    // "<vm> <cell>", a third column (older writers' group) ignored, or in
    // the journal "<vm> -" for a release.
    const std::size_t space = line.find(' ');
    const std::string cell_text =
        space == std::string::npos ? "" : line.substr(space + 1, line.find(' ', space + 1) - space - 1);
    const bool released = !saved && cell_text == "-";
    unsigned long long vm = 0;
    unsigned long long cell = 0;
    if (is.eof() || !parse_u64(line.substr(0, space), &vm) ||
        !(released || parse_u64(cell_text, &cell))) {
      return false;
    }
    // A cell past this router's means the topology shrank since the save:
    // the vm resolves via re-placement (cells stay the durable truth).
    if (released || cell >= cells_.size()) {
      loaded.erase(vm);
    } else {
      loaded[vm] = static_cast<std::size_t>(cell);
    }
  }
  if (lines < count) return false;  // a body shorter than its count
  std::lock_guard<std::mutex> lock(mu_);
  vm_map_ = std::move(loaded);
  return true;
}

Response Router::local_reject(const Request& request, const char* error,
                              std::string message) const {
  Response response;
  response.ok = false;
  response.op = to_string(request.op);
  response.vm = request.vm_id;
  response.error = error;
  response.message = std::move(message);
  return response;
}

std::future<Response> Router::submit(Request request) {
  m_.requests->inc();
  switch (request.op) {
    case RequestOp::kPlace: {
      bool known = false;
      {
        std::lock_guard<std::mutex> lock(mu_);
        known = vm_map_.count(request.vm_id) > 0;
      }
      if (known) {
        // Likely a duplicate — but an in-flight release ahead of us on some
        // connection may clear it, so the verdict is deferred to resolve
        // time (do_place re-checks and runs the whole placement inline).
        return std::async(std::launch::deferred,
                          [this, request = std::move(request)] {
                            return do_place(request);
                          });
      }
      // Hot path: fire at the hash cell NOW so pipelined connections keep
      // the cell's batching engine fed; spillover/map bookkeeping runs in
      // the deferred continuation at this response's FIFO slot.
      const std::size_t primary = cell_of_vm(request.vm_id, cells_.size());
      m_.fanout_requests->inc();
      auto eager = cells_[primary]->submit(request);
      return std::async(std::launch::deferred,
                        [this, request = std::move(request), primary,
                         eager = std::move(eager)]() mutable {
                          return finish_place(std::move(request),
                                              std::move(eager), primary);
                        });
    }
    case RequestOp::kRelease:
    case RequestOp::kMigrate:
    case RequestOp::kLookup: {
      std::optional<std::size_t> cell;
      {
        std::lock_guard<std::mutex> lock(mu_);
        const auto it = vm_map_.find(request.vm_id);
        if (it != vm_map_.end()) cell = it->second;
      }
      if (cell.has_value()) {
        m_.fanout_requests->inc();
        auto eager = cells_[*cell]->submit(request);
        return std::async(std::launch::deferred,
                          [this, request = std::move(request), c = *cell,
                           eager = std::move(eager)]() mutable {
                            return finish_vm_op(std::move(request),
                                                std::move(eager), c);
                          });
      }
      // Unknown vm at submit time: the placement that makes it known may be
      // in flight ahead of us, so route at resolve time.
      return std::async(std::launch::deferred,
                        [this, request = std::move(request)] {
                          return do_vm_op(request);
                        });
    }
    case RequestOp::kUtil: {
      // A sample goes to the cell that owns its subject. Collectors that
      // know the topology say {"cell":N} outright (required for pm-keyed
      // samples: pm indices are per-cell); vm-keyed samples route through
      // the vm map like any vm op, a miss to the vm's hash cell.
      std::size_t cell = 0;
      if (request.cell.has_value()) {
        if (*request.cell >= cells_.size()) {
          return std::async(std::launch::deferred, [this, request = std::move(request)] {
            return local_reject(request, "bad_field", "cell index out of range");
          });
        }
        cell = static_cast<std::size_t>(*request.cell);
      } else if (request.pm.has_value()) {
        return std::async(std::launch::deferred, [this, request = std::move(request)] {
          return local_reject(request, "bad_field",
                              "pm-keyed util needs an explicit \"cell\" behind a router");
        });
      } else {
        std::lock_guard<std::mutex> lock(mu_);
        const auto it = vm_map_.find(request.vm_id);
        cell = it != vm_map_.end() ? it->second : cell_of_vm(request.vm_id, cells_.size());
      }
      m_.fanout_requests->inc();
      auto eager = cells_[cell]->submit(request);
      return std::async(std::launch::deferred,
                        [this, request = std::move(request), cell,
                         eager = std::move(eager)]() mutable {
                          return retry_unreachable(cell, request, eager.get());
                        });
    }
    case RequestOp::kRebalance: {
      // Planner control fans out: every cell runs its own planner, so a
      // pause/trigger/status addresses all of them and the answer merges.
      m_.fanout_ops->inc();
      std::vector<std::future<Response>> futures;
      futures.reserve(cells_.size());
      for (RequestSink* cell : cells_) {
        m_.fanout_requests->inc();
        futures.push_back(cell->submit(request));
      }
      return std::async(std::launch::deferred,
                        [this, futures = std::move(futures)]() mutable {
                          return merge_rebalance(std::move(futures));
                        });
    }
    case RequestOp::kRebalanceScan:
      return std::async(std::launch::deferred, [this, request = std::move(request)] {
        return local_reject(request, "unknown_op",
                            "rebalance_scan is planner-internal");
      });
    case RequestOp::kStats:
    case RequestOp::kHealth:
    case RequestOp::kDrain: {
      m_.fanout_ops->inc();
      std::vector<std::future<Response>> futures;
      futures.reserve(cells_.size());
      for (RequestSink* cell : cells_) {
        m_.fanout_requests->inc();
        futures.push_back(cell->submit(request));
      }
      const RequestOp op = request.op;
      return std::async(std::launch::deferred,
                        [this, op, futures = std::move(futures)]() mutable {
                          if (op == RequestOp::kStats)
                            return merge_stats(std::move(futures));
                          if (op == RequestOp::kHealth)
                            return merge_health(std::move(futures));
                          return merge_drain(std::move(futures));
                        });
    }
    case RequestOp::kMetrics:
      return std::async(std::launch::deferred,
                        [this] { return metrics_response(); });
    case RequestOp::kReplHello:
    case RequestOp::kReplSnapshot:
    case RequestOp::kReplFrames:
    case RequestOp::kPromote:
      // Replication and failover ops address one node, not the sharded
      // deployment — leaders and operators dial the cell directly.
      return std::async(std::launch::deferred, [this, request = std::move(request)] {
        return local_reject(request, "unknown_op",
                            "replication ops address a cell directly, not the router");
      });
  }
  return std::async(std::launch::deferred, [this, request] {
    return local_reject(request, "unknown_op", "unroutable op");
  });
}

Response Router::place_on_cells(const Request& request, std::size_t first,
                                std::size_t attempts, bool spill_from_start,
                                std::size_t* accepted_cell) {
  const std::size_t n = cells_.size();
  // group_conflict dominates no_capacity in the merged verdict: "some cell
  // had room but the group vetoed it" is more actionable than "full".
  std::optional<Response> conflict;
  std::optional<Response> full;
  for (std::size_t i = 0; i < attempts; ++i) {
    const std::size_t cell = (first + i) % n;
    if (spill_from_start || i > 0) m_.spillover->inc();
    Response r = cell_call(cell, request);
    if (r.ok) {
      *accepted_cell = cell;
      return r;
    }
    if (r.error == to_string(RejectReason::kGroupConflict)) {
      conflict = std::move(r);
      continue;
    }
    if (r.error == to_string(RejectReason::kNoCapacity)) {
      full = std::move(r);
      continue;
    }
    // Backpressure, degraded storage, duplicates, transport failure: the
    // verdict is not about THIS cell's capacity, so spilling over would
    // mask it. Stop and forward.
    return r;
  }
  if (conflict.has_value()) return std::move(*conflict);
  return std::move(*full);
}

Response Router::record_or_compensate(const Request& request, Response placed,
                                      std::size_t cell) {
  if (update_map(request.vm_id, cell, cell)) {
    placed.extra.emplace_back("cell", std::to_string(cell));
    return placed;
  }
  // Another connection placed this vm between our map check and now. The
  // cell accepted and WAL'd our placement, so undo it explicitly — the
  // losing request must observe duplicate_vm, exactly like the single-cell
  // daemon would have answered.
  m_.compensations->inc();
  Request undo;
  undo.op = RequestOp::kRelease;
  undo.vm_id = request.vm_id;
  cell_call(cell, undo);
  return local_reject(request, to_string(RejectReason::kDuplicateVm),
                      "vm placed concurrently by another connection");
}

Response Router::finish_place(Request request, std::future<Response> primary,
                              std::size_t primary_cell) {
  Response r = retry_unreachable(primary_cell, request, primary.get());
  if (r.ok) return record_or_compensate(request, std::move(r), primary_cell);
  const bool conflict = r.error == to_string(RejectReason::kGroupConflict);
  if ((!conflict && r.error != to_string(RejectReason::kNoCapacity)) || cells_.size() == 1)
    return r;
  std::size_t accepted = 0;
  Response spilled =
      place_on_cells(request, (primary_cell + 1) % cells_.size(),
                     cells_.size() - 1, /*spill_from_start=*/true, &accepted);
  if (spilled.ok) return record_or_compensate(request, std::move(spilled), accepted);
  // As in place_on_cells, the primary's group_conflict outranks the other
  // cells' no_capacity.
  if (conflict && spilled.error == to_string(RejectReason::kNoCapacity)) return r;
  return spilled;
}

Response Router::do_place(const Request& request) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (vm_map_.count(request.vm_id) > 0)
      return local_reject(request, to_string(RejectReason::kDuplicateVm),
                          "vm id is already placed");
  }
  std::size_t accepted = 0;
  Response placed = place_on_cells(request, cell_of_vm(request.vm_id, cells_.size()),
                                   cells_.size(), /*spill_from_start=*/false,
                                   &accepted);
  if (!placed.ok) return placed;
  return record_or_compensate(request, std::move(placed), accepted);
}

Response Router::finish_vm_op(Request request, std::future<Response> eager,
                              std::size_t cell) {
  Response r = retry_unreachable(cell, request, eager.get());
  if (r.ok && request.op == RequestOp::kRelease) update_map(request.vm_id, std::nullopt, cell);
  r.extra.emplace_back("cell", std::to_string(cell));
  return r;
}

Response Router::do_vm_op(const Request& request) {
  // A map miss goes to the hash cell, which holds a VM placed there before
  // the map was saved and answers unknown_vm for an id nobody placed.
  std::size_t cell = cell_of_vm(request.vm_id, cells_.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = vm_map_.find(request.vm_id);
    if (it != vm_map_.end()) cell = it->second;
  }
  m_.fanout_requests->inc();
  auto f = cells_[cell]->submit(request);
  return finish_vm_op(request, std::move(f), cell);
}

Response Router::merge_stats(std::vector<std::future<Response>> futures) {
  std::vector<std::pair<std::string, unsigned long long>> sums;
  std::vector<Response> responses;
  responses.reserve(futures.size());
  for (auto& f : futures) responses.push_back(f.get());
  for (std::size_t i = 0; i < responses.size(); ++i) {
    if (!responses[i].ok) {
      if (responses[i].error == kCellUnreachable) m_.cell_unreachable->inc();
      Response r = std::move(responses[i]);
      r.message = "cell " + std::to_string(i) + ": " + r.message;
      return r;
    }
  }
  for (const Response& r : responses) {
    for (const auto& [key, value] : r.extra) {
      unsigned long long v = 0;
      if (!parse_u64(value, &v)) continue;  // digests, flags, quoted strings
      auto it = sums.begin();
      for (; it != sums.end(); ++it)
        if (it->first == key) break;
      if (it == sums.end())
        sums.emplace_back(key, v);
      else
        it->second += v;
    }
  }
  Response merged;
  merged.ok = true;
  merged.op = "stats";
  merged.extra.emplace_back("cells", std::to_string(cells_.size()));
  for (const auto& [key, value] : sums)
    merged.extra.emplace_back(key, std::to_string(value));
  return merged;
}

Response Router::merge_health(std::vector<std::future<Response>> futures) {
  int severity = 0;
  std::size_t unreachable = 0;
  unsigned long long queue_depth = 0;
  for (auto& f : futures) {
    const Response r = f.get();
    if (!r.ok) {
      // A cell that cannot answer health is treated as degraded; the router
      // itself keeps answering (monitoring wants a verdict, not a hangup).
      if (r.error == kCellUnreachable) m_.cell_unreachable->inc();
      ++unreachable;
      severity = 2;
      continue;
    }
    for (const auto& [key, value] : r.extra) {
      if (key == "mode") severity = std::max(severity, mode_severity(value));
      unsigned long long v = 0;
      if (key == "queue_depth" && parse_u64(value, &v)) queue_depth += v;
    }
  }
  Response merged;
  merged.ok = true;
  merged.op = "health";
  merged.extra.emplace_back("mode", json_quote(mode_name(severity)));
  merged.extra.emplace_back("role", json_quote("router"));
  merged.extra.emplace_back("cells", std::to_string(cells_.size()));
  merged.extra.emplace_back("cells_unreachable", std::to_string(unreachable));
  merged.extra.emplace_back("queue_depth", std::to_string(queue_depth));
  return merged;
}

Response Router::merge_rebalance(std::vector<std::future<Response>> futures) {
  // Busiest state wins the merged verdict; per-cell states ride along so an
  // operator can still see which cell is doing what.
  const auto state_rank = [](const std::string& quoted) {
    if (quoted == "\"migrating\"") return 4;
    if (quoted == "\"scanning\"") return 3;
    if (quoted == "\"paused\"") return 2;
    if (quoted == "\"idle\"") return 1;
    return 0;  // "off" or anything unknown
  };
  const char* state_names[] = {"off", "idle", "paused", "scanning", "migrating"};
  int rank = 0;
  std::string cell_states = "[";
  unsigned long long rounds = 0, last_moves = 0, total_moves = 0;
  std::size_t unreachable = 0;
  std::optional<Response> failed;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const Response r = futures[i].get();
    if (!r.ok) {
      if (r.error == kCellUnreachable) {
        m_.cell_unreachable->inc();
        ++unreachable;
      } else if (!failed.has_value()) {
        // A real rejection (e.g. rebalance_disabled on one cell) outranks a
        // partial success: control ops must not silently half-apply.
        failed = r;
        failed->message = "cell " + std::to_string(i) + ": " + failed->message;
      }
      if (cell_states.size() > 1) cell_states += ',';
      cell_states += "\"unreachable\"";
      continue;
    }
    for (const auto& [key, value] : r.extra) {
      unsigned long long v = 0;
      if (key == "state") {
        rank = std::max(rank, state_rank(value));
        if (cell_states.size() > 1) cell_states += ',';
        cell_states += value;
      } else if (key == "rounds" && parse_u64(value, &v)) {
        rounds += v;
      } else if (key == "last_round_moves" && parse_u64(value, &v)) {
        last_moves += v;
      } else if (key == "total_moves" && parse_u64(value, &v)) {
        total_moves += v;
      }
    }
  }
  if (failed.has_value()) return std::move(*failed);
  cell_states += ']';
  Response merged;
  merged.ok = true;
  merged.op = "rebalance";
  merged.extra.emplace_back("state", json_quote(state_names[rank]));
  merged.extra.emplace_back("cells", std::to_string(cells_.size()));
  merged.extra.emplace_back("cells_unreachable", std::to_string(unreachable));
  merged.extra.emplace_back("cell_states", std::move(cell_states));
  merged.extra.emplace_back("rounds", std::to_string(rounds));
  merged.extra.emplace_back("last_round_moves", std::to_string(last_moves));
  merged.extra.emplace_back("total_moves", std::to_string(total_moves));
  return merged;
}

Response Router::metrics_response() {
  Response response;
  response.ok = true;
  response.op = "metrics";
  response.extra.emplace_back("metrics", metrics_->render_json());
  return response;
}

Response Router::merge_drain(std::vector<std::future<Response>> futures) {
  Response merged;
  merged.ok = true;
  merged.op = "drain";
  std::size_t drained = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const Response r = futures[i].get();
    if (r.ok) {
      ++drained;
      continue;
    }
    if (r.error == kCellUnreachable) m_.cell_unreachable->inc();
    merged.ok = false;
    merged.error = r.error;
    merged.message = "cell " + std::to_string(i) + ": " + r.message;
  }
  merged.extra.emplace_back("cells", std::to_string(cells_.size()));
  merged.extra.emplace_back("cells_drained", std::to_string(drained));
  return merged;
}

}  // namespace prvm
