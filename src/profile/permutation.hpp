// Anti-collocation permutation enumeration (paper §IV, §V-C line 6).
//
// A VM's demand within a dimension group (its vCPUs over cores, its virtual
// disks over disks) must land on *distinct* dimensions, but any permutation
// is allowed: {a,a,0,0} and {0,a,0,a} are the same request. Placing a VM on
// a PM therefore means choosing, per group, an injection of demand items
// into dimensions with enough headroom. This module enumerates those
// choices, deduplicated by the canonical profile they produce — exactly the
// "set of possible PM profiles after accommodating every permutation of the
// VM's profile" of Algorithm 2.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/flat_map.hpp"
#include "profile/profile.hpp"

namespace prvm {

/// A VM's resource demand quantized against one ProfileShape: for each group
/// of the shape, the list of per-dimension demand items (sorted descending).
/// Each item must be placed on a distinct dimension of its group.
struct QuantizedDemand {
  std::vector<std::vector<int>> group_items;

  /// Total demanded levels across all groups.
  int total() const;

  /// Validates against a shape: right number of groups, items positive,
  /// sorted descending, no more items than dimensions, items within
  /// per-dimension capacity.
  void validate(const ProfileShape& shape) const;

  std::string describe() const;
};

/// One way to add demand items to the dimensions of a single group.
struct GroupPlacement {
  /// (dimension index within the group, amount added) pairs.
  std::vector<std::pair<int, int>> assignments;
  /// Group usage after the placement, in the group's original dim order.
  std::vector<int> result_usage;
};

/// Enumerates placements of `items` (sorted descending) onto the group's
/// dimensions, one representative per distinct *canonical* outcome.
/// `usage` is the group's current usage (any order); `capacity` is the
/// per-dimension capacity. Returns an empty vector when nothing fits.
std::vector<GroupPlacement> enumerate_group_placements(std::span<const int> usage, int capacity,
                                                       std::span<const int> items);

/// One way to place a whole demand on a profile.
struct DemandPlacement {
  /// (global dimension index, amount added) pairs, across all groups.
  std::vector<std::pair<int, int>> assignments;
  /// The resulting profile in the original dimension order (not canonical).
  Profile result;
};

/// Enumerates placements of a full demand onto `current`, one representative
/// per distinct canonical resulting profile. `current` need not be
/// canonical (the concrete per-core/per-disk state of a live PM is not).
std::vector<DemandPlacement> enumerate_placements(const ProfileShape& shape,
                                                  const Profile& current,
                                                  const QuantizedDemand& demand);

/// Appends to `out` the distinct canonical successor keys of the canonical
/// profile `current` under `demand`: the edge set of the profile graph.
///
/// Order (the score table keeps the *first* successor with the top score,
/// so it decides placements): within one group, ascending lexicographic
/// order of the group's descending-sorted usage; across groups, a
/// mixed-radix product with group 0 varying fastest.
///
/// Works on the packed key and stack buffers only: no heap allocation
/// unless `out` must grow, or a group has more distinct outcomes than the
/// stack buffer holds (then one scratch vector is allocated).
void enumerate_successor_keys(const ProfileShape& shape, ProfileKey current,
                              const QuantizedDemand& demand, std::vector<ProfileKey>& out);

/// enumerate_successor_keys for a fixed list of demands, memoized per group.
///
/// Anti-collocation acts on each dimension group on its own, so a group's
/// outcomes under one VM type depend only on that group's canonical state.
/// The memo keeps them per (demand index, group, state), enumerated once by
/// the same per-group DFS, and assembles successor keys from them with the
/// same mixed-radix product: keys and order are those of
/// enumerate_successor_keys. The two EC2 graphs have 131k profiles between
/// them but only a few hundred group states, so their build runs the group
/// DFS about 7k times instead of 4.7M.
class SuccessorMemo {
 public:
  explicit SuccessorMemo(const ProfileShape& shape);

  /// Enumerates every group state of the canonical profile `key` that is not
  /// yet known under demands [first, demands.size()). `demands` must be the
  /// memo's demand list (a growing list keeps its indices) and already
  /// validated against the shape. Throws on a non-canonical key or stray high
  /// bits, and then stores nothing. Not safe while another thread uses the
  /// memo.
  void fill(ProfileKey key, std::span<const QuantizedDemand> demands, std::size_t first = 0);

  /// True when fill(key, demands, first) with demands.size() == `count`
  /// would enumerate nothing. Any number of threads may call it at once.
  bool filled(ProfileKey key, std::size_t first, std::size_t count) const;

  /// Appends the successor keys of `key` under each demand in [first, last)
  /// in turn, which fill() must have covered. No heap allocation unless
  /// `out` must grow; any number of threads may call it at once.
  void append_successors(ProfileKey key, std::size_t first, std::size_t last,
                         std::vector<ProfileKey>& out) const;
  void append_successors(ProfileKey key, std::size_t t, std::vector<ProfileKey>& out) const {
    append_successors(key, t, t + 1, out);
  }

  /// Per-group DFS runs so far: one per distinct (demand, group, state).
  std::size_t group_runs() const { return group_runs_; }

 private:
  static constexpr std::uint32_t kUnfilled = UINT32_MAX;

  /// A group's outcomes under one demand: parts_[begin, end).
  struct Range {
    std::uint32_t begin = kUnfilled;
    std::uint32_t end = 0;
  };

  struct Group {
    int shift = 0;        ///< the group's lowest key bit
    ProfileKey mask = 0;  ///< the group's state bits, shifted to bit 0
    FlatMap64<std::uint32_t> states;  ///< state -> state id (ids span all groups)
  };

  /// Group g's bits of `key`, shifted down to bit 0.
  ProfileKey state_of(std::size_t g, ProfileKey key) const {
    return (key >> groups_[g].shift) & groups_[g].mask;
  }
  const std::uint32_t* find_state(std::size_t g, ProfileKey key) const {
    return groups_[g].states.find(state_of(g, key));
  }

  ProfileShape shape_;
  std::vector<Group> groups_;
  std::size_t state_count_ = 0;
  std::vector<std::vector<Range>> ranges_;  ///< [demand][state id]
  std::vector<ProfileKey> parts_;           ///< each at its group's key bits
  std::size_t group_runs_ = 0;
};

/// True if at least one placement of the demand exists on a profile with
/// per-dimension `levels` (any order within a group).
bool demand_fits(const ProfileShape& shape, std::span<const int> levels,
                 const QuantizedDemand& demand);

}  // namespace prvm
