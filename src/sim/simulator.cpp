#include "sim/simulator.hpp"

#include <algorithm>
#include <chrono>

#include "common/check.hpp"
#include "energy/power_model.hpp"

namespace prvm {

namespace {
constexpr double kSloUtilization = 1.0 - 1e-9;  // "CPU utilization of 100%"
}

CloudSimulation::CloudSimulation(Datacenter dc, std::vector<Vm> vms,
                                 std::vector<std::size_t> trace_of_vm, TraceSet traces,
                                 SimulationOptions options)
    : dc_(std::move(dc)),
      vms_(std::move(vms)),
      trace_of_vm_(std::move(trace_of_vm)),
      traces_(std::move(traces)),
      options_(options),
      log_(options.record_events) {
  PRVM_REQUIRE(vms_.size() == trace_of_vm_.size(), "one trace binding per VM required");
  PRVM_REQUIRE(options_.epochs > 0, "simulation needs at least one epoch");
  PRVM_REQUIRE(options_.epoch_seconds > 0.0, "epoch length must be positive");
  PRVM_REQUIRE(options_.overload_threshold > 0.0 && options_.overload_threshold <= 1.5,
               "implausible overload threshold");
  for (std::size_t i = 0; i < vms_.size(); ++i) {
    PRVM_REQUIRE(trace_of_vm_[i] < traces_.size(), "trace index out of range");
    const auto [it, inserted] = vm_slot_.emplace(vms_[i].id, i);
    PRVM_REQUIRE(inserted, "duplicate VM id in request list");
  }
}

const Vm& CloudSimulation::vm_of(VmId id) const {
  const auto it = vm_slot_.find(id);
  PRVM_REQUIRE(it != vm_slot_.end(), "unknown VM id");
  return vms_[it->second];
}

double CloudSimulation::vcpu_demand_ghz(const Vm& vm, std::size_t trace_index,
                                        double core_ghz) const {
  const VmType& type = dc_.catalog().vm_type(vm.type_index);
  const double fraction = traces_.at(trace_index).at(epoch_);
  if (options_.cpu_model == CpuDemandModel::kReserved) {
    return type.vcpu_ghz * fraction;
  }
  return std::min(core_ghz, options_.burst_factor * type.vcpu_ghz) * fraction;
}

double CloudSimulation::vm_cpu_ghz(VmId vm) const {
  const auto it = vm_slot_.find(vm);
  PRVM_REQUIRE(it != vm_slot_.end(), "unknown VM id");
  const Vm& v = vms_[it->second];
  const auto pm = dc_.pm_of(vm);
  if (!pm.has_value()) return 0.0;
  const double core_ghz = dc_.catalog().pm_type(dc_.pm(*pm).type_index).core_ghz;
  const VmType& type = dc_.catalog().vm_type(v.type_index);
  return static_cast<double>(type.vcpus) *
         vcpu_demand_ghz(v, trace_of_vm_[it->second], core_ghz);
}

double CloudSimulation::pm_cpu_utilization(PmIndex pm) const {
  const Datacenter::PmView state = dc_.pm(pm);
  double demand = 0.0;
  for (const Datacenter::PlacedVm& placed : state.vms) demand += vm_cpu_ghz(placed.vm.id);
  const double capacity = dc_.catalog().pm_type(state.type_index).total_cpu_ghz();
  // May exceed 1.0 under bursting: the paper's SLO definition reads 100 %
  // as "demand has reached or exceeded capacity".
  return demand / capacity;
}

std::vector<double> CloudSimulation::pm_core_utilizations(PmIndex pm) const {
  const Datacenter::PmView state = dc_.pm(pm);
  const PmType& type = dc_.catalog().pm_type(state.type_index);
  std::vector<double> demand(static_cast<std::size_t>(type.cores), 0.0);
  for (const Datacenter::PlacedVm& placed : state.vms) {
    const auto it = vm_slot_.find(placed.vm.id);
    PRVM_CHECK(it != vm_slot_.end(), "placed VM missing from request list");
    const double per_vcpu =
        vcpu_demand_ghz(placed.vm, trace_of_vm_[it->second], type.core_ghz);
    // CPU is always the first dimension group: dims [0, cores) are cores.
    for (auto [dim, amount] : placed.assignments) {
      if (dim < type.cores) demand[static_cast<std::size_t>(dim)] += per_vcpu;
    }
  }
  for (double& d : demand) d /= type.core_ghz;
  return demand;
}

double CloudSimulation::pm_hottest_utilization(PmIndex pm) const {
  double hottest = pm_cpu_utilization(pm);
  if (options_.overload_rule == OverloadRule::kAnyDimension) {
    for (double u : pm_core_utilizations(pm)) hottest = std::max(hottest, u);
  }
  return hottest;
}

SimMetrics CloudSimulation::run(PlacementAlgorithm& algorithm, MigrationPolicy& policy) {
  PRVM_REQUIRE(!ran_, "CloudSimulation is single-use");
  ran_ = true;

  using Clock = std::chrono::steady_clock;
  SimMetrics metrics;
  metrics.simulated_seconds = options_.epoch_seconds * static_cast<double>(options_.epochs);

  // Initial allocation.
  const auto t0 = Clock::now();
  const std::vector<VmId> rejected = algorithm.place_all(dc_, vms_);
  metrics.placement_seconds += std::chrono::duration<double>(Clock::now() - t0).count();
  metrics.rejected_vms = rejected.size();
  for (VmId id : rejected) log_.record({0, SimEventType::kVmRejected, id, 0, 0});
  for (const Vm& vm : vms_) {
    if (const auto pm = dc_.pm_of(vm.id); pm.has_value()) {
      log_.record({0, SimEventType::kVmPlaced, vm.id, *pm, 0});
    }
  }
  metrics.pms_used_initial = dc_.used_count();
  metrics.pms_used_max = dc_.used_count();

  std::vector<std::size_t> active_epochs(dc_.pm_count(), 0);
  std::vector<std::size_t> slo_epochs(dc_.pm_count(), 0);
  std::vector<bool> ever_used(dc_.pm_count(), false);
  for (PmIndex pm : dc_.used_pms()) ever_used[pm] = true;

  for (epoch_ = 0; epoch_ < options_.epochs; ++epoch_) {
    // Accounting scan over active PMs.
    std::vector<PmIndex> overloaded;
    for (PmIndex pm : dc_.used_pms()) {
      const double util = pm_cpu_utilization(pm);
      const double hottest = pm_hottest_utilization(pm);
      ++active_epochs[pm];
      if (hottest >= kSloUtilization) ++slo_epochs[pm];
      const PmType& type = dc_.catalog().pm_type(dc_.pm(pm).type_index);
      const double watts = power_model_for(type.cpu_model).power_watts(std::min(util, 1.0));
      metrics.energy_kwh += watts_to_kwh(watts, options_.epoch_seconds);
      if (hottest > options_.overload_threshold) overloaded.push_back(pm);
    }

    // Overload handling: evict until healthy, re-place elsewhere. The
    // destination veto mirrors CloudSim: a PM that is itself above the
    // threshold cannot receive migrating VMs (applies to every algorithm).
    PlacementConstraints migration_constraints;
    migration_constraints.allow = [this](const Datacenter&, PmIndex candidate) {
      return pm_hottest_utilization(candidate) <= options_.overload_threshold;
    };
    for (PmIndex pm : overloaded) {
      ++metrics.overload_events;
      log_.record({epoch_, SimEventType::kPmOverloaded, 0, pm, 0});
      migration_constraints.exclude = pm;
      while (dc_.pm(pm).used() && pm_hottest_utilization(pm) > options_.overload_threshold) {
        const auto victim = policy.select_victim(*this, pm);
        if (!victim.has_value()) break;
        const Datacenter::PlacedVm record = dc_.remove(*victim);
        const auto t1 = Clock::now();
        const auto dest = algorithm.place(dc_, vm_of(*victim), migration_constraints);
        metrics.placement_seconds += std::chrono::duration<double>(Clock::now() - t1).count();
        if (dest.has_value()) {
          ++metrics.vm_migrations;
          ever_used[*dest] = true;
          log_.record({epoch_, SimEventType::kVmMigrated, *victim, pm, *dest});
        } else {
          // Nowhere to go: put the VM back exactly where it was and give up
          // on this PM for this epoch.
          dc_.place(pm, record.vm, std::vector<std::pair<int, int>>(record.assignments));
          ++metrics.failed_migrations;
          log_.record({epoch_, SimEventType::kMigrationFailed, *victim, pm, 0});
          break;
        }
      }
      metrics.pms_used_max = std::max(metrics.pms_used_max, dc_.used_count());
    }
    metrics.pms_used_max = std::max(metrics.pms_used_max, dc_.used_count());
  }

  metrics.pms_used_ever = static_cast<std::size_t>(
      std::count(ever_used.begin(), ever_used.end(), true));

  // SLO violations: mean over ever-active PMs of % active time at 100 %.
  double ratio_sum = 0.0;
  std::size_t ever_active = 0;
  for (PmIndex pm = 0; pm < dc_.pm_count(); ++pm) {
    if (active_epochs[pm] == 0) continue;
    ++ever_active;
    ratio_sum += static_cast<double>(slo_epochs[pm]) / static_cast<double>(active_epochs[pm]);
  }
  metrics.slo_violation_percent = ever_active == 0 ? 0.0 : 100.0 * ratio_sum / ever_active;
  return metrics;
}

std::vector<Vm> random_vm_requests(Rng& rng, const Catalog& catalog, std::size_t count) {
  PRVM_REQUIRE(count > 0, "need at least one VM");
  std::vector<Vm> vms;
  vms.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    vms.push_back(Vm{static_cast<VmId>(i), rng.uniform_index(catalog.vm_types().size())});
  }
  return vms;
}

std::vector<Vm> weighted_vm_requests(Rng& rng, const Catalog& catalog, std::size_t count,
                                     const std::vector<double>& weights) {
  PRVM_REQUIRE(count > 0, "need at least one VM");
  PRVM_REQUIRE(weights.size() == catalog.vm_types().size(),
               "one weight per catalog VM type required");
  std::vector<Vm> vms;
  vms.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    vms.push_back(Vm{static_cast<VmId>(i), rng.weighted_index(weights)});
  }
  return vms;
}

std::vector<double> default_vm_mix(const Catalog& catalog) {
  std::vector<double> weights;
  weights.reserve(catalog.vm_types().size());
  bool all_known = true;
  for (const VmType& type : catalog.vm_types()) {
    if (type.name == "m3.medium") weights.push_back(0.10);
    else if (type.name == "m3.large") weights.push_back(0.10);
    else if (type.name == "m3.xlarge") weights.push_back(0.05);
    else if (type.name == "m3.2xlarge") weights.push_back(0.05);
    else if (type.name == "c3.large") weights.push_back(0.35);
    else if (type.name == "c3.xlarge") weights.push_back(0.35);
    else { all_known = false; break; }
  }
  if (!all_known) weights.assign(catalog.vm_types().size(), 1.0);
  return weights;
}

std::vector<std::size_t> random_trace_binding(Rng& rng, std::size_t vm_count,
                                              std::size_t trace_count) {
  PRVM_REQUIRE(trace_count > 0, "need at least one trace");
  std::vector<std::size_t> binding;
  binding.reserve(vm_count);
  for (std::size_t i = 0; i < vm_count; ++i) binding.push_back(rng.uniform_index(trace_count));
  return binding;
}

std::vector<std::size_t> mixed_pm_fleet(const Catalog& catalog, std::size_t pm_count) {
  PRVM_REQUIRE(pm_count > 0, "need at least one PM");
  std::vector<std::size_t> fleet;
  fleet.reserve(pm_count);
  for (std::size_t i = 0; i < pm_count; ++i) fleet.push_back(i % catalog.pm_types().size());
  return fleet;
}

}  // namespace prvm
