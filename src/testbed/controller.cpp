#include "testbed/controller.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace prvm {

namespace {
constexpr double kSloUtilization = 1.0 - 1e-9;
}

GeniController::GeniController(Datacenter dc, std::vector<Vm> jobs,
                               std::vector<std::size_t> trace_of_job, TraceSet traces,
                               TestbedOptions options)
    : dc_(std::move(dc)),
      jobs_(std::move(jobs)),
      trace_of_job_(std::move(trace_of_job)),
      traces_(std::move(traces)),
      options_(options),
      // Instances plus one controller node on the star.
      network_(dc_.pm_count() + 1, Link{}) {
  PRVM_REQUIRE(jobs_.size() == trace_of_job_.size(), "one trace binding per job required");
  PRVM_REQUIRE(options_.scans > 0 && options_.scan_seconds > 0.0, "bad testbed horizon");
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    PRVM_REQUIRE(trace_of_job_[i] < traces_.size(), "trace index out of range");
    const auto [it, inserted] = job_slot_.emplace(jobs_[i].id, i);
    PRVM_REQUIRE(inserted, "duplicate job id");
  }
}

const Vm& GeniController::job_of(VmId id) const {
  const auto it = job_slot_.find(id);
  PRVM_REQUIRE(it != job_slot_.end(), "unknown job id");
  return jobs_[it->second];
}

double GeniController::vm_cpu_ghz(VmId job) const {
  const auto rit = restarting_until_.find(job);
  if (rit != restarting_until_.end() && scan_ < rit->second) return 0.0;
  const auto it = job_slot_.find(job);
  PRVM_REQUIRE(it != job_slot_.end(), "unknown job id");
  const VmType& type = dc_.catalog().vm_type(jobs_[it->second].type_index);
  return type.total_cpu_ghz() * traces_.at(trace_of_job_[it->second]).at(scan_);
}

double GeniController::pm_cpu_utilization(PmIndex instance) const {
  const Datacenter::PmView state = dc_.pm(instance);
  double demand = 0.0;
  for (const Datacenter::PlacedVm& placed : state.vms) demand += vm_cpu_ghz(placed.vm.id);
  return demand / dc_.catalog().pm_type(state.type_index).total_cpu_ghz();
}

double GeniController::pm_hottest_utilization(PmIndex instance) const {
  const Datacenter::PmView state = dc_.pm(instance);
  const PmType& type = dc_.catalog().pm_type(state.type_index);
  std::vector<double> core_demand(static_cast<std::size_t>(type.cores), 0.0);
  for (const Datacenter::PlacedVm& placed : state.vms) {
    const auto it = job_slot_.find(placed.vm.id);
    PRVM_CHECK(it != job_slot_.end(), "placed job missing from request list");
    const VmType& vm = dc_.catalog().vm_type(placed.vm.type_index);
    const double per_vcpu = vm_cpu_ghz(placed.vm.id) / vm.vcpus;
    for (auto [dim, amount] : placed.assignments) {
      if (dim < type.cores) core_demand[static_cast<std::size_t>(dim)] += per_vcpu;
    }
  }
  double hottest = pm_cpu_utilization(instance);
  for (double d : core_demand) hottest = std::max(hottest, d / type.core_ghz);
  return hottest;
}

TestbedMetrics GeniController::run(PlacementAlgorithm& algorithm, MigrationPolicy& policy) {
  PRVM_REQUIRE(!ran_, "GeniController is single-use");
  ran_ = true;

  TestbedMetrics metrics;
  const StarNetwork::NodeId controller_node = dc_.pm_count();  // last node

  // Initial job assignment: the controller commands each hosting instance.
  const std::vector<VmId> rejected = algorithm.place_all(dc_, jobs_);
  metrics.rejected_jobs = rejected.size();
  for (const Vm& job : jobs_) {
    if (const auto pm = dc_.pm_of(job.id); pm.has_value()) {
      metrics.control_latency_seconds +=
          network_.send(controller_node, *pm, options_.command_bytes);
    }
  }
  metrics.pms_used = dc_.used_count();

  std::vector<std::size_t> active_scans(dc_.pm_count(), 0);
  std::vector<std::size_t> slo_scans(dc_.pm_count(), 0);

  for (scan_ = 0; scan_ < options_.scans; ++scan_) {
    // Status poll of every instance (used or not — the controller cannot
    // know without asking).
    for (PmIndex pm = 0; pm < dc_.pm_count(); ++pm) {
      metrics.control_latency_seconds += network_.round_trip(
          controller_node, pm, options_.status_request_bytes, options_.status_response_bytes);
    }

    std::vector<PmIndex> overloaded;
    for (PmIndex pm : dc_.used_pms()) {
      const double hottest = pm_hottest_utilization(pm);
      ++active_scans[pm];
      if (hottest >= kSloUtilization) ++slo_scans[pm];
      if (hottest > options_.overload_threshold) overloaded.push_back(pm);
    }

    PlacementConstraints migration_constraints;
    migration_constraints.allow = [this](const Datacenter&, PmIndex candidate) {
      return pm_hottest_utilization(candidate) <= options_.overload_threshold;
    };
    for (PmIndex pm : overloaded) {
      ++metrics.overload_events;
      migration_constraints.exclude = pm;
      while (dc_.pm(pm).used() && pm_hottest_utilization(pm) > options_.overload_threshold) {
        const auto victim = policy.select_victim(*this, pm);
        if (!victim.has_value()) break;
        const Datacenter::PlacedVm record = dc_.remove(*victim);
        const auto dest = algorithm.place(dc_, job_of(*victim), migration_constraints);
        if (dest.has_value()) {
          ++metrics.migrations;
          // Kill on the source, restart on the destination: two commands
          // and one scan interval of downtime for the job.
          metrics.control_latency_seconds +=
              network_.send(controller_node, pm, options_.command_bytes);
          metrics.control_latency_seconds +=
              network_.send(controller_node, *dest, options_.command_bytes);
          restarting_until_[*victim] = scan_ + 1 + options_.restart_scans;
          metrics.job_downtime_seconds +=
              options_.scan_seconds * static_cast<double>(options_.restart_scans);
        } else {
          dc_.place(pm, record.vm, std::vector<std::pair<int, int>>(record.assignments));
          ++metrics.failed_migrations;
          break;
        }
      }
    }
    metrics.pms_used = std::max(metrics.pms_used, dc_.used_count());
  }

  double ratio_sum = 0.0;
  std::size_t ever_active = 0;
  for (PmIndex pm = 0; pm < dc_.pm_count(); ++pm) {
    if (active_scans[pm] == 0) continue;
    ++ever_active;
    ratio_sum += static_cast<double>(slo_scans[pm]) / static_cast<double>(active_scans[pm]);
  }
  metrics.slo_violation_percent = ever_active == 0 ? 0.0 : 100.0 * ratio_sum / ever_active;
  metrics.controller_traffic_mb = static_cast<double>(network_.total_bytes()) / 1e6;
  return metrics;
}

}  // namespace prvm
