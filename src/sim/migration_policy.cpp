#include "sim/migration_policy.hpp"

#include <iterator>

#include "common/check.hpp"

namespace prvm {

std::optional<VmId> MinimumMigrationTimePolicy::select_victim(const SimView& view, PmIndex pm) {
  const Datacenter& dc = view.datacenter();
  const Datacenter::PmView state = dc.pm(pm);
  std::optional<VmId> victim;
  double victim_mem = 0.0;
  for (const Datacenter::PlacedVm& placed : state.vms) {
    const double mem = dc.catalog().vm_type(placed.vm.type_index).memory_gib;
    if (!victim.has_value() || mem < victim_mem ||
        (mem == victim_mem && placed.vm.id < *victim)) {
      victim = placed.vm.id;
      victim_mem = mem;
    }
  }
  return victim;
}

PageRankMigrationPolicy::PageRankMigrationPolicy(std::shared_ptr<const ScoreTableSet> tables)
    : tables_(std::move(tables)) {
  PRVM_REQUIRE(tables_ != nullptr, "PageRank migration policy needs score tables");
}

std::optional<VmId> PageRankMigrationPolicy::select_victim(const SimView& view, PmIndex pm) {
  const Datacenter& dc = view.datacenter();
  const Datacenter::PmView state = dc.pm(pm);
  const ProfileShape& shape = dc.catalog().shape(state.type_index);
  const ScoreTable& table = tables_->table(state.type_index);

  std::optional<VmId> victim;
  double victim_score = 0.0;
  for (const Datacenter::PlacedVm& placed : state.vms) {
    // Residual profile after removing this VM.
    std::vector<int> levels(state.usage.levels().begin(), state.usage.levels().end());
    for (auto [dim, amount] : placed.assignments) {
      levels[static_cast<std::size_t>(dim)] -= amount;
      PRVM_CHECK(levels[static_cast<std::size_t>(dim)] >= 0, "residual underflow");
    }
    const ProfileKey key =
        Profile::from_levels(shape, std::move(levels)).canonical(shape).pack(shape);
    // Residuals are sums of placed demands, hence always reachable/in-table.
    const auto score = table.find(key);
    PRVM_CHECK(score.has_value(), "residual profile missing from score table");
    if (!victim.has_value() || *score > victim_score ||
        (*score == victim_score && placed.vm.id < *victim)) {
      victim = placed.vm.id;
      victim_score = *score;
    }
  }
  return victim;
}

std::optional<VmId> MaxCpuVictimPolicy::select_victim(const SimView& view, PmIndex pm) {
  const Datacenter& dc = view.datacenter();
  std::optional<VmId> victim;
  double victim_cpu = -1.0;
  for (const Datacenter::PlacedVm& placed : dc.pm(pm).vms) {
    const double cpu = view.vm_cpu_ghz(placed.vm.id);
    if (cpu > victim_cpu || (cpu == victim_cpu && victim && placed.vm.id < *victim)) {
      victim = placed.vm.id;
      victim_cpu = cpu;
    }
  }
  return victim;
}

std::optional<VmId> RandomVictimPolicy::select_victim(const SimView& view, PmIndex pm) {
  const Datacenter::VmList vms = view.datacenter().pm(pm).vms;
  if (vms.empty()) return std::nullopt;
  return (*std::next(vms.begin(), static_cast<std::ptrdiff_t>(rng_.uniform_index(vms.size()))))
      .vm.id;
}

std::unique_ptr<MigrationPolicy> default_policy_for(AlgorithmKind kind,
                                                    std::shared_ptr<const ScoreTableSet> tables) {
  if (kind == AlgorithmKind::kPageRankVm) {
    return std::make_unique<PageRankMigrationPolicy>(std::move(tables));
  }
  return std::make_unique<MinimumMigrationTimePolicy>();
}

}  // namespace prvm
