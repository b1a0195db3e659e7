#include "exact/branch_and_bound.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/check.hpp"
#include "placement/ffd_sum.hpp"

namespace prvm {

namespace {

using Clock = std::chrono::steady_clock;

// Per-resource totals in *model* units (quantized levels times the level's
// real size), so the aggregate-capacity bound is exact within the quantized
// model and therefore admissible.
struct ResourceVec {
  double cpu = 0.0;
  double mem = 0.0;
  double disk = 0.0;
};

ResourceVec pm_capacity(const PmType& pm) {
  return {pm.cores * pm.core_ghz, pm.memory_gib, pm.disks * pm.disk_gb};
}

// The least model-space consumption of a VM across the PM types it fits —
// a lower bound on what it consumes wherever it ends up.
ResourceVec min_consumption(const Catalog& catalog, std::size_t vm_type) {
  ResourceVec best{std::numeric_limits<double>::infinity(),
                   std::numeric_limits<double>::infinity(),
                   std::numeric_limits<double>::infinity()};
  const QuantizationConfig& q = catalog.quantization();
  for (std::size_t p = 0; p < catalog.pm_types().size(); ++p) {
    const auto& demand = catalog.demand(p, vm_type);
    if (!demand.has_value()) continue;
    const PmType& pm = catalog.pm_type(p);
    ResourceVec v;
    const ProfileShape& shape = catalog.shape(p);
    for (std::size_t g = 0; g < shape.group_count(); ++g) {
      double unit = 0.0;
      switch (shape.groups()[g].kind) {
        case ResourceKind::kCpu: unit = pm.core_ghz / q.cpu_levels; break;
        case ResourceKind::kMemory: unit = pm.memory_gib / q.mem_levels; break;
        case ResourceKind::kDisk: unit = pm.disk_gb / q.disk_levels; break;
      }
      const int levels = std::accumulate(demand->group_items[g].begin(),
                                         demand->group_items[g].end(), 0);
      switch (shape.groups()[g].kind) {
        case ResourceKind::kCpu: v.cpu = levels * unit; break;
        case ResourceKind::kMemory: v.mem = levels * unit; break;
        case ResourceKind::kDisk: v.disk = levels * unit; break;
      }
    }
    best.cpu = std::min(best.cpu, v.cpu);
    best.mem = std::min(best.mem, v.mem);
    best.disk = std::min(best.disk, v.disk);
  }
  if (!std::isfinite(best.cpu)) best.cpu = 0.0;
  if (!std::isfinite(best.mem)) best.mem = 0.0;
  if (!std::isfinite(best.disk)) best.disk = 0.0;
  return best;
}

// Free model-space capacity on one (possibly partially used) PM.
ResourceVec pm_free(const Catalog& catalog, const Datacenter::PmView& state) {
  const PmType& pm = catalog.pm_type(state.type_index);
  const ProfileShape& shape = catalog.shape(state.type_index);
  const QuantizationConfig& q = catalog.quantization();
  ResourceVec free;
  for (std::size_t g = 0; g < shape.group_count(); ++g) {
    const int off = shape.group_offset(g);
    int used_levels = 0;
    for (int i = 0; i < shape.groups()[g].count; ++i) used_levels += state.usage.level(off + i);
    const int total_levels = shape.groups()[g].count * shape.groups()[g].capacity;
    const int free_levels = total_levels - used_levels;
    switch (shape.groups()[g].kind) {
      case ResourceKind::kCpu: free.cpu += free_levels * (pm.core_ghz / q.cpu_levels); break;
      case ResourceKind::kMemory: free.mem += free_levels * (pm.memory_gib / q.mem_levels); break;
      case ResourceKind::kDisk: free.disk += free_levels * (pm.disk_gb / q.disk_levels); break;
    }
  }
  return free;
}

class Solver {
 public:
  Solver(const ExactInstance& instance, const BranchAndBoundOptions& options)
      : instance_(instance),
        options_(options),
        dc_(instance.catalog, instance.pm_types_of),
        start_(Clock::now()) {
    // Decreasing-size order tightens the bound early.
    order_.resize(instance_.vms.size());
    std::iota(order_.begin(), order_.end(), std::size_t{0});
    std::stable_sort(order_.begin(), order_.end(), [&](std::size_t a, std::size_t b) {
      return FfdSum::vm_size(instance_.catalog, instance_.vms[a].type_index) >
             FfdSum::vm_size(instance_.catalog, instance_.vms[b].type_index);
    });

    // Suffix sums of minimal consumption along the search order.
    suffix_.assign(order_.size() + 1, ResourceVec{});
    for (std::size_t i = order_.size(); i-- > 0;) {
      const ResourceVec c =
          min_consumption(instance_.catalog, instance_.vms[order_[i]].type_index);
      suffix_[i].cpu = suffix_[i + 1].cpu + c.cpu;
      suffix_[i].mem = suffix_[i + 1].mem + c.mem;
      suffix_[i].disk = suffix_[i + 1].disk + c.disk;
    }

    max_pm_cap_ = ResourceVec{};
    min_unused_cost_ = std::numeric_limits<double>::infinity();
    for (PmIndex j = 0; j < instance_.pm_types_of.size(); ++j) {
      const ResourceVec cap = pm_capacity(instance_.catalog.pm_type(instance_.pm_types_of[j]));
      max_pm_cap_.cpu = std::max(max_pm_cap_.cpu, cap.cpu);
      max_pm_cap_.mem = std::max(max_pm_cap_.mem, cap.mem);
      max_pm_cap_.disk = std::max(max_pm_cap_.disk, cap.disk);
      min_unused_cost_ = std::min(min_unused_cost_, instance_.cost_of(j));
    }

    current_.resize(instance_.vms.size());
  }

  BranchAndBoundResult run() {
    result_.proven_optimal = true;  // cleared if a budget trips
    if (!instance_.vms.empty()) {
      dfs(0, 0.0);
    } else {
      result_.feasible = true;
      result_.cost = 0.0;
    }
    result_.seconds =
        std::chrono::duration<double>(Clock::now() - start_).count();
    if (!result_.feasible) result_.proven_optimal = false;
    return result_;
  }

 private:
  bool budget_exceeded() {
    if (result_.nodes_explored >= options_.max_nodes) return true;
    // Checking the clock every node is expensive; sample it.
    if ((result_.nodes_explored & 0x3ff) == 0) {
      const double elapsed = std::chrono::duration<double>(Clock::now() - start_).count();
      if (elapsed > options_.time_limit_seconds) timed_out_ = true;
    }
    return timed_out_;
  }

  double lower_bound_extra_cost(std::size_t depth) const {
    // Free capacity already paid for (on used PMs).
    ResourceVec free;
    for (PmIndex j : dc_.used_pms()) {
      const ResourceVec f = pm_free(instance_.catalog, dc_.pm(j));
      free.cpu += f.cpu;
      free.mem += f.mem;
      free.disk += f.disk;
    }
    const ResourceVec& need = suffix_[depth];
    double extra_pms = 0.0;
    if (max_pm_cap_.cpu > 0.0)
      extra_pms = std::max(extra_pms, std::ceil((need.cpu - free.cpu) / max_pm_cap_.cpu - 1e-9));
    if (max_pm_cap_.mem > 0.0)
      extra_pms = std::max(extra_pms, std::ceil((need.mem - free.mem) / max_pm_cap_.mem - 1e-9));
    if (max_pm_cap_.disk > 0.0)
      extra_pms =
          std::max(extra_pms, std::ceil((need.disk - free.disk) / max_pm_cap_.disk - 1e-9));
    if (extra_pms < 0.0) extra_pms = 0.0;
    return extra_pms * min_unused_cost_;
  }

  void dfs(std::size_t depth, double cost) {
    ++result_.nodes_explored;
    if (budget_exceeded()) {
      result_.proven_optimal = false;
      return;
    }
    if (depth == order_.size()) {
      if (!result_.feasible || cost < result_.cost - 1e-12) {
        result_.feasible = true;
        result_.cost = cost;
        result_.pms_used = dc_.used_count();
        result_.assignment = current_;
      }
      return;
    }
    if (result_.feasible) {
      const double bound =
          options_.use_capacity_bound ? lower_bound_extra_cost(depth) : 0.0;
      if (cost + bound >= result_.cost - 1e-12) return;
    }

    const Vm& vm = instance_.vms[order_[depth]];

    // Branch over used PMs (every distinct anti-collocation outcome).
    const std::vector<PmIndex> used = dc_.used_pms();
    for (PmIndex j : used) {
      for (const DemandPlacement& p : dc_.placements(j, vm.type_index)) {
        dc_.place(j, vm, p);
        current_[order_[depth]] = VmAssignment{j, p};
        dfs(depth + 1, cost);
        dc_.remove(vm.id);
        if (timed_out_) return;
      }
    }

    // Branch over one unused PM per PM type: the cheapest (PMs of one type
    // are interchangeable and same-type capacity is identical, so this
    // preserves optimality).
    std::vector<PmIndex> representative;
    {
      std::vector<bool> seen(instance_.catalog.pm_types().size(), false);
      std::vector<PmIndex> cheapest(instance_.catalog.pm_types().size(), 0);
      for (PmIndex j = 0; j < dc_.pm_count(); ++j) {
        if (dc_.pm(j).used()) continue;
        const std::size_t t = dc_.pm(j).type_index;
        if (!seen[t] || instance_.cost_of(j) < instance_.cost_of(cheapest[t])) {
          seen[t] = true;
          cheapest[t] = j;
        }
      }
      for (std::size_t t = 0; t < seen.size(); ++t) {
        if (seen[t]) representative.push_back(cheapest[t]);
      }
    }
    for (PmIndex j : representative) {
      for (const DemandPlacement& p : dc_.placements(j, vm.type_index)) {
        dc_.place(j, vm, p);
        current_[order_[depth]] = VmAssignment{j, p};
        dfs(depth + 1, cost + instance_.cost_of(j));
        dc_.remove(vm.id);
        if (timed_out_) return;
      }
    }
  }

  const ExactInstance& instance_;
  BranchAndBoundOptions options_;
  Datacenter dc_;
  Clock::time_point start_;
  std::vector<std::size_t> order_;
  std::vector<ResourceVec> suffix_;
  ResourceVec max_pm_cap_;
  double min_unused_cost_ = 1.0;
  ExactAssignment current_;
  BranchAndBoundResult result_;
  bool timed_out_ = false;
};

}  // namespace

BranchAndBoundResult solve_exact(const ExactInstance& instance,
                                 const BranchAndBoundOptions& options) {
  PRVM_REQUIRE(instance.pm_costs.empty() ||
                   instance.pm_costs.size() == instance.pm_types_of.size(),
               "pm_costs must be empty or one per PM");
  Solver solver(instance, options);
  return solver.run();
}

}  // namespace prvm
