// The online rebalancer: the paper's §VI dynamic consolidation loop —
// detect overloaded PMs, evict PageRank-selected victims, re-place them
// elsewhere — running as a background thread inside the daemon instead of
// an offline epoch simulator (DESIGN.md §9).
//
// The planner deliberately owns no placement state and no authority:
//
//  - It reads load through a LoadView: the sim's SimView contract over a
//    frozen ledger copy (obtained from the worker via an internal
//    rebalance_scan request), whose VM slots and PM records carry the
//    utilization samples; the planner never touches live state. The same
//    MigrationPolicy implementations the simulator uses (PageRank residual
//    scoring, minimum-migration-time) therefore run unmodified online.
//
//  - Every move it decides is submitted as a normal internal `migrate`
//    request through the service queue, carrying a destination utilization
//    cap (`Request::rebalance_dest_cap`, the CloudSim "a PM at the
//    threshold cannot receive migrants" rule). Durability (ack after WAL
//    flush), anti-collocation admission, WAL group commit and follower
//    streaming all apply unchanged — a planner move is
//    indistinguishable from a client migrate in the WAL.
//
//  - Rounds are bounded: at most max_moves_per_round migrations, a per-VM
//    cooldown so the same VM is not ping-ponged every round, and an
//    evict-until-healthy inner loop identical to CloudSimulation::run.
//
// State machine: idle -> scanning -> migrating -> idle, with paused as an
// operator-controlled overlay (`rebalance` op: pause/resume/trigger).
// Failure modes: a follower or degraded service answers the scan with
// leader=false/degraded=true and the round becomes a no-op; a queue_full
// migrate is retried per the server's hint; a no_capacity migrate counts as
// failed and abandons the source PM for this round (exactly the simulator's
// put-back-and-give-up).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cluster/datacenter.hpp"
#include "core/catalog_graphs.hpp"
#include "obs/metrics.hpp"
#include "rebalance/utilization.hpp"
#include "service/request_sink.hpp"
#include "sim/migration_policy.hpp"

namespace prvm {

/// Ledger snapshot handed from the service worker to the planner through an
/// internal rebalance_scan request (forward-declared in protocol.hpp).
struct ScanSink {
  std::optional<Datacenter> dc;
  bool leader = false;    ///< false on a replication follower: do not plan
  bool degraded = false;  ///< storage degraded: mutations would be rejected
};

/// SimView over a ledger and its utilization samples at one instant. Mirrors
/// CloudSimulation's reserved-demand model exactly (same math, same
/// OverloadRule::kAnyDimension hottest-dimension monitor), so a policy
/// sees the same world online as in the simulator — the sim-parity tests
/// in test_rebalancer.cpp pin this equivalence.
class LoadView final : public SimView {
 public:
  /// Borrows the ledger; `codec` decodes its sample words and now_ns fixes
  /// the decay instant for the whole scan so one round sees one consistent
  /// timeline.
  LoadView(const Datacenter* dc, UtilizationCodec codec, std::uint64_t now_ns)
      : dc_(dc), codec_(codec), now_ns_(now_ns) {}

  const Datacenter& datacenter() const override { return *dc_; }
  /// Reserved-model demand: fraction * vcpus * vcpu_ghz (a VM without a
  /// live sample draws 0 — absence of signal is not load).
  double vm_cpu_ghz(VmId vm) const override;
  /// Aggregate demand over the PM's *physical* capacity.
  double pm_cpu_utilization(PmIndex pm) const override;
  /// Per-core demand / core_ghz (CPU dims are always [0, cores)).
  std::vector<double> pm_core_utilizations(PmIndex pm) const;
  /// max(aggregate, hottest core, direct per-PM sample): the monitored
  /// quantity for overload/underload decisions and the destination cap.
  double pm_hottest_utilization(PmIndex pm) const;
  /// True when the PM or at least one VM on it has a live (non-stale)
  /// sample. PMs without signal are never planned against.
  bool has_signal(PmIndex pm) const;

 private:
  /// Decayed fraction of a sample word; 0 without a live sample.
  double fraction(std::uint64_t sample) const;

  const Datacenter* dc_;
  UtilizationCodec codec_;
  std::uint64_t now_ns_;
};

struct RebalanceConfig {
  bool enabled = false;
  /// Evict from PMs whose hottest dimension exceeds this (and cap
  /// destinations at it). Default matches SimulationOptions.
  double overload_threshold = 0.9;
  /// Consolidate PMs at or below this away entirely (when the whole PM
  /// fits in the round's remaining move budget).
  double underload_threshold = 0.2;
  std::uint64_t interval_ms = 1000;
  std::size_t max_moves_per_round = 8;
  /// A migrated VM is not re-migrated for this long.
  std::uint64_t cooldown_ms = 5000;
  /// Sample decay (see utilization.hpp).
  std::uint64_t half_life_ms = 10'000;
  std::uint64_t stale_after_ms = 30'000;
};

struct RebalanceStatus {
  const char* state = "idle";  ///< idle | scanning | migrating | paused
  std::uint64_t rounds = 0;
  std::uint64_t last_round_moves = 0;
  std::uint64_t total_moves = 0;
};

class RebalancePlanner {
 public:
  /// `sink` is the service the planner scans and migrates through; `tables`
  /// selects the PageRank victim policy when present, minimum-migration-
  /// time otherwise (default_policy_for semantics). All metrics register in
  /// `registry`.
  RebalancePlanner(RebalanceConfig config, RequestSink& sink, UtilizationCodec codec,
                   std::shared_ptr<const ScoreTableSet> tables,
                   std::shared_ptr<obs::Registry> registry);
  ~RebalancePlanner();

  RebalancePlanner(const RebalancePlanner&) = delete;
  RebalancePlanner& operator=(const RebalancePlanner&) = delete;

  /// Starts the planner thread. Idempotent.
  void start();
  /// Stops and joins the planner thread; any in-flight round finishes its
  /// current migrate first. Idempotent, safe without start().
  void stop();

  void pause();
  void resume();
  /// Wakes the thread for an immediate round (no-op when not started —
  /// tests drive run_round directly).
  void trigger();

  RebalanceStatus status() const;
  const char* state_name() const;
  std::uint64_t last_round_moves() const {
    return last_round_moves_.load(std::memory_order_relaxed);
  }

  /// One synchronous scan/plan/execute round at the given instant; returns
  /// the number of acknowledged moves. The thread loop calls this; tests
  /// call it directly for determinism.
  std::size_t run_round(std::uint64_t now_ns);

 private:
  enum class State : int { kIdle = 0, kScanning = 1, kMigrating = 2 };

  void loop();
  bool in_cooldown(VmId vm, std::uint64_t now_ns) const;
  /// Submits one internal migrate (destination capped at the overload
  /// threshold; consolidation moves additionally require a non-empty
  /// destination), retrying queue_full per the server's hint. True on ack.
  bool submit_migrate(VmId vm, bool consolidate);
  /// Re-inserts an eviction candidate whose migrate failed into the frozen
  /// ledger, exactly where it was and with its sample (the simulator's
  /// put-back).
  static void put_back(Datacenter& dc, PmIndex pm, const Datacenter::PlacedVm& record);

  RebalanceConfig config_;
  RequestSink& sink_;
  UtilizationCodec codec_;
  std::unique_ptr<MigrationPolicy> policy_;
  std::shared_ptr<obs::Registry> registry_;

  struct Metrics {
    obs::Counter* scans = nullptr;
    obs::Counter* plans = nullptr;  ///< rounds that produced >= 1 move
    obs::Counter* moves = nullptr;
    obs::Counter* failed_moves = nullptr;
    obs::Counter* skipped_cooldown = nullptr;
    obs::Histogram* pm_util_pct = nullptr;  ///< hottest-dimension %, per scanned PM
    obs::Histogram* scan_ns = nullptr;
  };
  Metrics m_;

  /// Planner-thread-only: VM -> earliest re-migration instant.
  std::unordered_map<VmId, std::uint64_t> cooldown_until_ns_;

  std::atomic<int> state_{static_cast<int>(State::kIdle)};
  std::atomic<bool> paused_{false};
  std::atomic<std::uint64_t> rounds_{0};
  std::atomic<std::uint64_t> last_round_moves_{0};
  std::atomic<std::uint64_t> total_moves_{0};

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;     ///< guarded by mu_
  bool trigger_ = false;  ///< guarded by mu_
  bool running_ = false;  ///< thread started (start/stop call sites only)
  std::thread thread_;
};

}  // namespace prvm
