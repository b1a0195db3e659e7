#include "placement/assignment.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"

namespace prvm {

std::optional<DemandPlacement> tight_placement(const Datacenter& dc, PmIndex pm,
                                               std::size_t vm_type) {
  const Datacenter::PmView state = dc.pm(pm);
  const auto& demand = dc.catalog().demand(state.type_index, vm_type);
  if (!demand.has_value()) return std::nullopt;
  const ProfileShape& shape = dc.catalog().shape(state.type_index);

  std::vector<int> levels(state.usage.levels().begin(), state.usage.levels().end());
  DemandPlacement placement{{}, Profile::zero(shape)};

  for (std::size_t g = 0; g < shape.group_count(); ++g) {
    const int off = shape.group_offset(g);
    const int n = shape.groups()[g].count;
    const int capacity = shape.groups()[g].capacity;
    std::vector<bool> used(static_cast<std::size_t>(n), false);
    // Items are stored sorted descending; assign each to the feasible
    // dimension with the least free capacity.
    for (int item : demand->group_items[g]) {
      int best_dim = -1;
      int best_free = std::numeric_limits<int>::max();
      for (int i = 0; i < n; ++i) {
        if (used[static_cast<std::size_t>(i)]) continue;
        const int free = capacity - levels[static_cast<std::size_t>(off + i)];
        if (free >= item && free < best_free) {
          best_free = free;
          best_dim = i;
        }
      }
      if (best_dim < 0) return std::nullopt;
      used[static_cast<std::size_t>(best_dim)] = true;
      levels[static_cast<std::size_t>(off + best_dim)] += item;
      placement.assignments.emplace_back(off + best_dim, item);
    }
  }
  placement.result = Profile::from_levels(shape, std::move(levels));
  return placement;
}

std::optional<DemandPlacement> balanced_placement(const Datacenter& dc, PmIndex pm,
                                                  std::size_t vm_type) {
  const Datacenter::PmView state = dc.pm(pm);
  const auto& demand = dc.catalog().demand(state.type_index, vm_type);
  if (!demand.has_value()) return std::nullopt;
  const ProfileShape& shape = dc.catalog().shape(state.type_index);

  std::vector<int> levels(state.usage.levels().begin(), state.usage.levels().end());
  DemandPlacement placement{{}, Profile::zero(shape)};

  for (std::size_t g = 0; g < shape.group_count(); ++g) {
    const int off = shape.group_offset(g);
    const int n = shape.groups()[g].count;
    const int capacity = shape.groups()[g].capacity;
    std::vector<bool> used(static_cast<std::size_t>(n), false);
    for (int item : demand->group_items[g]) {
      int best_dim = -1;
      int best_usage = std::numeric_limits<int>::max();
      for (int i = 0; i < n; ++i) {
        if (used[static_cast<std::size_t>(i)]) continue;
        const int usage = levels[static_cast<std::size_t>(off + i)];
        if (capacity - usage >= item && usage < best_usage) {
          best_usage = usage;
          best_dim = i;
        }
      }
      if (best_dim < 0) return std::nullopt;
      used[static_cast<std::size_t>(best_dim)] = true;
      levels[static_cast<std::size_t>(off + best_dim)] += item;
      placement.assignments.emplace_back(off + best_dim, item);
    }
  }
  placement.result = Profile::from_levels(shape, std::move(levels));
  return placement;
}

std::optional<DemandPlacement> min_variance_placement(const Datacenter& dc, PmIndex pm,
                                                      std::size_t vm_type) {
  const ProfileShape& shape = dc.shape_of(pm);
  auto options = dc.placements(pm, vm_type);
  if (options.empty()) return std::nullopt;
  std::size_t best = 0;
  double best_variance = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < options.size(); ++i) {
    const double v = options[i].result.variance(shape);
    if (v < best_variance) {
      best_variance = v;
      best = i;
    }
  }
  return options[best];
}

}  // namespace prvm
