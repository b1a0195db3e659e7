#include "rebalance/planner.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "service/protocol.hpp"

namespace prvm {

// --- LoadView -------------------------------------------------------------
// Every formula below is CloudSimulation's reserved-demand model verbatim
// (simulator.cpp): demand per vCPU = fraction * vcpu_ghz, aggregate
// utilization over physical total_cpu_ghz, per-core demand summed over the
// VM's core assignments (CPU dims are [0, cores)), hottest = max(aggregate,
// cores). The only online addition is the direct per-PM sample, which can
// raise (never lower) the hottest reading.

double LoadView::fraction(std::uint64_t sample) const {
  return codec_.decayed(sample, now_ns_).value_or(0.0);
}

double LoadView::vm_cpu_ghz(VmId vm) const {
  if (!dc_->pm_of(vm).has_value()) return 0.0;
  const Datacenter::PlacedVm placed = dc_->placed(vm);
  return fraction(placed.sample) * dc_->catalog().vm_type(placed.vm.type_index).total_cpu_ghz();
}

double LoadView::pm_cpu_utilization(PmIndex pm) const {
  const Datacenter::PmView state = dc_->pm(pm);
  double demand = 0.0;
  for (const Datacenter::PlacedVm& placed : state.vms) {
    const VmType& type = dc_->catalog().vm_type(placed.vm.type_index);
    demand += fraction(placed.sample) * type.total_cpu_ghz();
  }
  return demand / dc_->catalog().pm_type(state.type_index).total_cpu_ghz();
}

std::vector<double> LoadView::pm_core_utilizations(PmIndex pm) const {
  const Datacenter::PmView state = dc_->pm(pm);
  const PmType& type = dc_->catalog().pm_type(state.type_index);
  std::vector<double> demand(static_cast<std::size_t>(type.cores), 0.0);
  for (const Datacenter::PlacedVm& placed : state.vms) {
    const VmType& vm_type = dc_->catalog().vm_type(placed.vm.type_index);
    const double per_vcpu = fraction(placed.sample) * vm_type.vcpu_ghz;
    for (auto [dim, amount] : placed.assignments) {
      if (dim < type.cores) demand[static_cast<std::size_t>(dim)] += per_vcpu;
    }
  }
  for (double& d : demand) d /= type.core_ghz;
  return demand;
}

double LoadView::pm_hottest_utilization(PmIndex pm) const {
  double hottest = pm_cpu_utilization(pm);
  for (double u : pm_core_utilizations(pm)) hottest = std::max(hottest, u);
  if (const auto direct = codec_.decayed(dc_->pm_sample(pm), now_ns_); direct.has_value()) {
    hottest = std::max(hottest, *direct);
  }
  return hottest;
}

bool LoadView::has_signal(PmIndex pm) const {
  if (codec_.decayed(dc_->pm_sample(pm), now_ns_).has_value()) return true;
  for (const Datacenter::PlacedVm& placed : dc_->pm(pm).vms) {
    if (codec_.decayed(placed.sample, now_ns_).has_value()) return true;
  }
  return false;
}

// --- RebalancePlanner -----------------------------------------------------

RebalancePlanner::RebalancePlanner(RebalanceConfig config, RequestSink& sink,
                                   UtilizationCodec codec,
                                   std::shared_ptr<const ScoreTableSet> tables,
                                   std::shared_ptr<obs::Registry> registry)
    : config_(config), sink_(sink), codec_(codec), registry_(std::move(registry)) {
  if (tables != nullptr) {
    policy_ = std::make_unique<PageRankMigrationPolicy>(std::move(tables));
  } else {
    policy_ = std::make_unique<MinimumMigrationTimePolicy>();
  }
  obs::Registry& r = *registry_;
  m_.scans = &r.counter("prvm_rebal_scans_total");
  m_.plans = &r.counter("prvm_rebal_plans_total");
  m_.moves = &r.counter("prvm_rebal_moves_total");
  m_.failed_moves = &r.counter("prvm_rebal_failed_moves_total");
  m_.skipped_cooldown = &r.counter("prvm_rebal_skipped_cooldown_total");
  m_.pm_util_pct = &r.histogram("prvm_rebal_pm_util_pct");
  m_.scan_ns = &r.histogram("prvm_rebal_scan_ns");
}

RebalancePlanner::~RebalancePlanner() { stop(); }

void RebalancePlanner::start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) return;
  stop_ = false;
  running_ = true;
  thread_ = std::thread([this] { loop(); });
}

void RebalancePlanner::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    running_ = false;
  }
}

void RebalancePlanner::pause() { paused_.store(true, std::memory_order_relaxed); }

void RebalancePlanner::resume() { paused_.store(false, std::memory_order_relaxed); }

void RebalancePlanner::trigger() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    trigger_ = true;
  }
  cv_.notify_all();
}

const char* RebalancePlanner::state_name() const {
  if (paused_.load(std::memory_order_relaxed)) return "paused";
  switch (static_cast<State>(state_.load(std::memory_order_relaxed))) {
    case State::kScanning: return "scanning";
    case State::kMigrating: return "migrating";
    case State::kIdle: break;
  }
  return "idle";
}

RebalanceStatus RebalancePlanner::status() const {
  RebalanceStatus s;
  s.state = state_name();
  s.rounds = rounds_.load(std::memory_order_relaxed);
  s.last_round_moves = last_round_moves_.load(std::memory_order_relaxed);
  s.total_moves = total_moves_.load(std::memory_order_relaxed);
  return s;
}

void RebalancePlanner::loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    cv_.wait_for(lock, std::chrono::milliseconds(config_.interval_ms),
                 [this] { return stop_ || trigger_; });
    if (stop_) break;
    trigger_ = false;
    lock.unlock();
    run_round(obs::now_ns());
    lock.lock();
  }
}

bool RebalancePlanner::in_cooldown(VmId vm, std::uint64_t now_ns) const {
  const auto it = cooldown_until_ns_.find(vm);
  return it != cooldown_until_ns_.end() && it->second > now_ns;
}

bool RebalancePlanner::submit_migrate(VmId vm, bool consolidate) {
  Request request;
  request.op = RequestOp::kMigrate;
  request.vm_id = vm;
  request.rebalance_dest_cap = config_.overload_threshold;
  request.rebalance_consolidate = consolidate;
  for (int attempt = 0; attempt < 3; ++attempt) {
    Response response = sink_.submit(request).get();
    if (response.ok) return true;
    if (response.error != "queue_full") return false;
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(response.retry_after_ms.value_or(5.0)));
  }
  return false;
}

void RebalancePlanner::put_back(Datacenter& dc, PmIndex pm,
                                const Datacenter::PlacedVm& record) {
  dc.place(pm, record.vm, std::vector<std::pair<int, int>>(record.assignments));
  dc.set_vm_sample(record.vm.id, record.sample);
}

std::size_t RebalancePlanner::run_round(std::uint64_t now_ns) {
  if (paused_.load(std::memory_order_relaxed)) return 0;
  state_.store(static_cast<int>(State::kScanning), std::memory_order_relaxed);
  m_.scans->inc();
  const std::uint64_t scan_start = obs::now_ns();

  // Freeze the ledger: the worker answers with a full Datacenter copy plus
  // its role/mode, through the same queue every client request takes.
  auto scan = std::make_shared<ScanSink>();
  Request scan_request;
  scan_request.op = RequestOp::kRebalanceScan;
  scan_request.scan_sink = scan;
  const Response scan_response = sink_.submit(std::move(scan_request)).get();
  if (!scan_response.ok || !scan->dc.has_value() || !scan->leader || scan->degraded) {
    state_.store(static_cast<int>(State::kIdle), std::memory_order_relaxed);
    return 0;
  }
  Datacenter frozen = std::move(*scan->dc);
  const LoadView view(&frozen, codec_, now_ns);

  // Classification pass (the simulator's accounting scan): overloaded PMs
  // sorted hottest-first, underloaded coolest-first; no live signal, no
  // opinion.
  std::vector<std::pair<double, PmIndex>> overloaded;
  std::vector<std::pair<double, PmIndex>> underloaded;
  for (PmIndex pm : frozen.used_pms()) {
    if (!view.has_signal(pm)) continue;
    const double util = view.pm_hottest_utilization(pm);
    m_.pm_util_pct->record(static_cast<std::uint64_t>(std::lround(util * 100.0)));
    if (util > config_.overload_threshold) {
      overloaded.emplace_back(util, pm);
    } else if (util <= config_.underload_threshold) {
      underloaded.emplace_back(util, pm);
    }
  }
  std::sort(overloaded.begin(), overloaded.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  std::sort(underloaded.begin(), underloaded.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first < b.first : a.second < b.second;
  });
  m_.scan_ns->record(obs::now_ns() - scan_start);

  std::size_t budget = config_.max_moves_per_round;
  std::size_t moves = 0;

  if (!overloaded.empty() || !underloaded.empty()) {
    state_.store(static_cast<int>(State::kMigrating), std::memory_order_relaxed);
  }

  // Overload relief: evict-until-healthy per PM, exactly the simulator's
  // inner loop. Victims leave the frozen copy so the view's utilization and
  // the policy's residual scoring track the plan as it builds; the live
  // destination check happens worker-side via rebalance_dest_cap.
  for (const auto& [util, pm] : overloaded) {
    if (budget == 0) break;
    while (budget > 0 && frozen.pm(pm).used() &&
           view.pm_hottest_utilization(pm) > config_.overload_threshold) {
      const std::optional<VmId> victim = policy_->select_victim(view, pm);
      if (!victim.has_value()) break;
      if (in_cooldown(*victim, now_ns)) {
        // The policy is deterministic: it would pick the same VM again, so
        // retrying this PM within the round would spin.
        m_.skipped_cooldown->inc();
        break;
      }
      const Datacenter::PlacedVm record = frozen.remove(*victim);
      if (submit_migrate(*victim, /*consolidate=*/false)) {
        ++moves;
        --budget;
        cooldown_until_ns_[*victim] = now_ns + config_.cooldown_ms * 1'000'000ull;
      } else {
        m_.failed_moves->inc();
        put_back(frozen, pm, record);
        break;  // the simulator's give-up-on-this-PM-this-epoch
      }
    }
  }

  // Consolidation: drain whole underloaded PMs with the remaining budget.
  // Only PMs that fit the budget entirely are touched — half-draining one
  // frees no hardware and doubles the migration bill.
  for (const auto& [util, pm] : underloaded) {
    if (budget == 0) break;
    std::vector<VmId> residents;
    residents.reserve(frozen.pm(pm).vms.size());
    for (const Datacenter::PlacedVm& placed : frozen.pm(pm).vms) {
      residents.push_back(placed.vm.id);
    }
    if (residents.empty() || residents.size() > budget) continue;
    const bool cooling = std::any_of(residents.begin(), residents.end(), [&](VmId vm) {
      return in_cooldown(vm, now_ns);
    });
    if (cooling) {
      m_.skipped_cooldown->inc();
      continue;
    }
    bool aborted = false;
    for (VmId vm : residents) {
      const Datacenter::PlacedVm record = frozen.remove(vm);
      if (submit_migrate(vm, /*consolidate=*/true)) {
        ++moves;
        --budget;
        cooldown_until_ns_[vm] = now_ns + config_.cooldown_ms * 1'000'000ull;
      } else {
        m_.failed_moves->inc();
        put_back(frozen, pm, record);
        aborted = true;
        break;
      }
    }
    if (aborted) break;
  }

  // Drop expired cooldown entries so the map tracks the active set, not
  // the lifetime set.
  for (auto it = cooldown_until_ns_.begin(); it != cooldown_until_ns_.end();) {
    it = it->second <= now_ns ? cooldown_until_ns_.erase(it) : std::next(it);
  }

  if (moves > 0) {
    m_.plans->inc();
    m_.moves->add(moves);
    total_moves_.fetch_add(moves, std::memory_order_relaxed);
  }
  rounds_.fetch_add(1, std::memory_order_relaxed);
  last_round_moves_.store(moves, std::memory_order_relaxed);
  state_.store(static_cast<int>(State::kIdle), std::memory_order_relaxed);
  return moves;
}

}  // namespace prvm
