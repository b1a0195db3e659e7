// Routing tier over N placement cells (DESIGN.md §7).
//
// The Router implements the same RequestSink contract the SocketServer
// feeds, so a routing daemon is byte-compatible with a single-cell daemon:
// clients speak the identical JSON-lines protocol and cannot tell how many
// cells answer them. Cells are plain RequestSink pointers — an embedded
// PlacementService in-process, or a SocketCellChannel to a remote daemon.
//
// Routing rules:
//  - place (grouped or not): hash-routed to cell_of_vm, spilling over to
//    the remaining cells in deterministic order when the primary rejects
//    with no_capacity or group_conflict — the sharded fleet only rejects
//    when EVERY cell is full. Anti-collocation needs nothing more: every constraint binds VMs
//    on one PM, cells own disjoint PMs, so each cell's admission enforces
//    the group across the whole fleet. VM-id uniqueness across cells rests
//    on the vm -> cell map: a known id is a duplicate, and two racing places
//    of one id are settled by record_or_compensate.
//  - release / migrate / lookup: routed by the router's vm -> cell map; a
//    miss goes to the vm's hash cell (it answers unknown_vm if it lacks it).
//  - stats: fanned out to every cell, numeric counters summed.
//  - health: fanned out, worst cell mode wins, role "router".
//  - util: routed to the owning cell (vm map, else hash cell, or explicit
//    "cell" — required for pm-keyed samples since pm indices are per-cell).
//  - rebalance: fanned out (each cell runs its own planner), move counters
//    summed, busiest planner state wins, per-cell states reported.
//  - metrics: the router's own registry (per-cell metrics are scraped from
//    the cells directly).
//  - drain: fanned out to every cell.
//
// Ordering: submit() returns std::async(deferred) futures whose
// continuations run on the caller's response-ordering thread (the
// SocketServer writer) at the response's FIFO slot. Hot-path ops with a
// known target cell are ALSO submitted eagerly at submit() time, so a
// pipelining connection keeps every cell's batching engine busy; the
// deferred continuation only post-processes (map updates, spillover,
// compensation). Ops whose target depends on earlier in-flight responses
// (a release racing its own place down the same connection) defer the
// routing decision itself to resolve time, where all earlier responses
// have already resolved.
//
// The vm -> cell map is the router's only mutable state. A restarted
// router reloads it from --map-file: a saved map, then a journal of the
// placements that landed off their hash cell (and of their releases),
// appended before each such response resolves. A VM on its hash cell needs
// no line: a retried place of it reaches that cell, which answers
// duplicate_vm itself.
#pragma once

#include <cstdint>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "service/protocol.hpp"
#include "service/request_sink.hpp"

namespace prvm {

struct RouterConfig {
  /// Registry for the router-level counters (prvm_router_*). Null = the
  /// router creates a private registry.
  std::shared_ptr<obs::Registry> metrics;
  /// Bounded retry on cell_unreachable: how many times one routed call is
  /// re-submitted after a transport failure. Each retry re-enters the
  /// cell's channel, so a FailoverCellChannel gets its chance to reconnect
  /// or promote a replica in between. 0 = fail fast (the old behavior).
  std::size_t retry_attempts = 2;
  /// Backoff before retry i is `retry_backoff_ms * (i + 1)` (linear: the
  /// common cause is a leader mid-failover, which resolves in tens of ms).
  double retry_backoff_ms = 25.0;
};

class Router : public RequestSink {
 public:
  /// `cells` are non-owning and must outlive the router. At least one.
  Router(std::vector<RequestSink*> cells, RouterConfig config = {});

  ~Router() override;

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  std::future<Response> submit(Request request) override;

  std::size_t cell_count() const { return cells_.size(); }
  obs::Registry& metrics_registry() const { return *metrics_; }

  /// The cell currently hosting `vm` according to the router map (test and
  /// tooling hook; nullopt = not placed through this router).
  std::optional<std::size_t> cell_of(std::uint64_t vm) const;

  /// Persists the vm -> cell map (atomic temp-file + rename), one "<vm>
  /// <cell>" line per VM after a "PRVMMAP1 <count>" header, and from then
  /// on journals to that file: each placement that lands off its hash cell
  /// appends "<vm> <cell>" and its release "<vm> -", before the response
  /// resolves. The lines are written, not fsynced, so they survive a killed
  /// router but not a lost host. A save compacts the journal away; it holds
  /// the journal's lock from building the blob to reopening the file, so
  /// no line falls between the two files.
  bool save_vm_map(const std::filesystem::path& path);
  /// Loads a map written by save_vm_map, replacing the in-memory map: the
  /// saved entries, then the journal lines after them. A torn last line
  /// (no newline) is ignored. Returns false, leaving the map as it was
  /// (empty at startup), when the file is missing or corrupt; a damaged
  /// entry count is never trusted to size anything. Entries whose cell
  /// index exceeds this router's cell count are dropped (topology changed;
  /// those vms resolve via re-placement). A third column (the group, which
  /// older writers saved) is ignored. Loading does not start the journal.
  bool load_vm_map(const std::filesystem::path& path);
  std::size_t vm_map_size() const;

 private:
  // Resolve-time executors (run on the response-ordering thread).
  Response finish_place(Request request, std::future<Response> primary,
                        std::size_t primary_cell);
  Response do_place(const Request& request);
  Response finish_vm_op(Request request, std::future<Response> eager,
                        std::size_t cell);
  Response do_vm_op(const Request& request);
  Response merge_stats(std::vector<std::future<Response>> futures);
  Response merge_health(std::vector<std::future<Response>> futures);
  Response merge_rebalance(std::vector<std::future<Response>> futures);
  Response metrics_response();
  Response merge_drain(std::vector<std::future<Response>> futures);

  /// Spillover loop: tries `attempts` cells starting at `first` until one
  /// accepts; capacity-style rejections move on, anything else
  /// (backpressure, degraded, duplicate) stops the scan. `spill_from_start` counts even the first attempt as
  /// spillover (the primary cell already answered before this loop).
  Response place_on_cells(const Request& request, std::size_t first,
                          std::size_t attempts, bool spill_from_start,
                          std::size_t* accepted_cell);
  /// Post-placement map insert. On conflict (another connection placed the
  /// vm first) issues a compensating release to `cell` and returns the
  /// duplicate_vm rejection; otherwise annotates and returns `placed`.
  Response record_or_compensate(const Request& request, Response placed,
                                std::size_t cell);
  /// Maps `vm` to `cell` (false if it is already mapped) or, with nullopt,
  /// unmaps it. When `via_cell`, the cell placing or releasing it, is not
  /// its hash cell, also appends the journal line.
  bool update_map(std::uint64_t vm, std::optional<std::size_t> cell, std::size_t via_cell);
  Response local_reject(const Request& request, const char* error,
                        std::string message) const;
  /// Routed call with bounded retry/backoff on cell_unreachable (each
  /// retry re-submits, giving a failover channel time to re-target).
  Response cell_call(std::size_t cell, const Request& request);
  /// Applies the same retry policy to an already-failed eager response.
  Response retry_unreachable(std::size_t cell, const Request& request, Response failed);

  std::vector<RequestSink*> cells_;
  RouterConfig config_;
  std::shared_ptr<obs::Registry> metrics_;

  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, std::size_t> vm_map_;  ///< vm -> cell

  /// Orders journaled map changes with their lines and with a save's
  /// compaction. Taken before mu_, and only for VMs off their hash cell.
  std::mutex journal_mu_;
  int journal_fd_ = -1;  ///< the map file the last save wrote, or -1

  struct Metrics {
    obs::Counter* requests = nullptr;         ///< client requests routed
    obs::Counter* fanout_requests = nullptr;  ///< per-cell sub-requests issued
    obs::Counter* fanout_ops = nullptr;       ///< all-cell fan-outs (stats/health/drain)
    obs::Counter* spillover = nullptr;        ///< placements moved off their hash cell
    obs::Counter* compensations = nullptr;    ///< double-place races undone
    obs::Counter* cell_unreachable = nullptr; ///< transport failures observed
    obs::Counter* retries = nullptr;          ///< re-submits after cell_unreachable
  };
  Metrics m_;
};

}  // namespace prvm
