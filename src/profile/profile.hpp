// PM resource-usage profiles (paper §III-A, §IV).
//
// A profile is the vector [p_1, ..., p_m] of quantized usage levels across a
// PM's resource dimensions. To support anti-collocation constraints the
// dimensions are organised into *groups*: every physical CPU core is its own
// dimension (one group of |C_j| interchangeable dims), every physical disk is
// its own dimension (one group of |D_j| dims), and memory is a singleton
// group. Dimensions within a group are interchangeable — a VM's vCPUs can be
// permuted across cores — so a profile is canonicalized by sorting each
// group's levels in descending order. Canonical profiles are the nodes of the
// PageRank profile graph.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace prvm {

/// Resource kind of a dimension group. Only used for reporting; the math
/// never depends on the kind (paper: "we do not distinguish the actual types
/// of resources represented by the dimensions").
enum class ResourceKind { kCpu, kMemory, kDisk };

const char* to_string(ResourceKind kind);

/// A group of interchangeable dimensions with a common per-dimension
/// capacity expressed in quantization levels.
struct DimensionGroup {
  ResourceKind kind = ResourceKind::kCpu;
  int count = 1;     ///< number of dimensions (cores / disks); 1 for memory
  int capacity = 1;  ///< capacity per dimension, in levels (Q)
};

/// Immutable description of a profile's layout: the dimension groups of one
/// PM type under one quantization. Knows how to pack a profile into a 64-bit
/// key (used as the hash key of the score table).
class ProfileShape {
 public:
  explicit ProfileShape(std::vector<DimensionGroup> groups);

  const std::vector<DimensionGroup>& groups() const { return groups_; }
  std::size_t group_count() const { return groups_.size(); }

  int total_dims() const { return total_dims_; }
  /// Index of the first dimension of group g.
  int group_offset(std::size_t g) const { return offsets_[g]; }
  /// Capacity (in levels) of dimension `dim`.
  int dim_capacity(int dim) const;
  /// Sum of all dimension capacities; the denominator of utilization.
  int total_capacity() const { return total_capacity_; }

  /// Bits used to encode one dimension of group g in the packed key.
  int group_bits(std::size_t g) const { return bits_[g]; }
  /// Total bits of a packed key; construction requires this to be <= 64.
  int key_bits() const { return key_bits_; }

  bool operator==(const ProfileShape& other) const { return groups_same(other); }

  std::string describe() const;

 private:
  bool groups_same(const ProfileShape& other) const;

  std::vector<DimensionGroup> groups_;
  std::vector<int> offsets_;
  std::vector<int> bits_;
  int total_dims_ = 0;
  int total_capacity_ = 0;
  int key_bits_ = 0;
};

/// Packed canonical-profile key. 0 is the empty profile of any shape.
using ProfileKey = std::uint64_t;

/// A usage profile over some shape: one level per dimension. Value type;
/// canonical form sorts each group descending. All graph/score operations
/// work on canonical profiles.
class Profile {
 public:
  /// A moved-from/unset profile (no dimensions). Exists so aggregates
  /// holding a Profile are default-constructible; every accessor below is
  /// only meaningful on a profile built for a shape.
  Profile() = default;

  /// The empty (all-zero) profile of a shape.
  static Profile zero(const ProfileShape& shape);

  /// Builds from explicit levels (size must match shape.total_dims(); every
  /// level must be within its dimension's capacity).
  static Profile from_levels(const ProfileShape& shape, std::vector<int> levels);

  /// Rebuilds this profile in place from explicit levels, with the same
  /// validation as from_levels() but reusing the existing storage — the
  /// allocation-free form for hot paths that mutate profiles per operation.
  void assign_levels(const ProfileShape& shape, std::span<const int> levels);

  /// Unpacks a key produced by pack().
  static Profile unpack(const ProfileShape& shape, ProfileKey key);

  std::span<const int> levels() const { return levels_; }
  int level(int dim) const { return levels_[static_cast<std::size_t>(dim)]; }

  /// Sum of levels: the paper's utilization numerator u = sum p_i.
  int total_usage() const;

  /// Utilization in [0, 1]: total_usage / total_capacity.
  double utilization(const ProfileShape& shape) const;

  /// Paper's v = (1/m) sum (p_i - u/m)^2 over *normalized* levels
  /// (level / capacity), so heterogeneous capacities compare fairly.
  double variance(const ProfileShape& shape) const;

  /// True if every group's levels are sorted in descending order.
  bool is_canonical(const ProfileShape& shape) const;

  /// Returns the canonical form (each group sorted descending).
  Profile canonical(const ProfileShape& shape) const;

  /// Packs a canonical profile into a 64-bit key. Requires is_canonical().
  ProfileKey pack(const ProfileShape& shape) const;

  /// True if this profile equals the shape's full-capacity ("best") profile.
  bool is_best(const ProfileShape& shape) const;

  bool operator==(const Profile& other) const { return levels_ == other.levels_; }

  std::string describe() const;

 private:
  explicit Profile(std::vector<int> levels) : levels_(std::move(levels)) {}

  std::vector<int> levels_;
};

/// A borrowed, read-only profile over byte levels stored elsewhere (one PM's
/// row of the datacenter's flat level array, whose capacities fit a byte).
/// Offers Profile's plain accessors, with levels read as int; valid only
/// while the owner of the levels leaves them unchanged.
class ProfileView {
 public:
  ProfileView() = default;
  explicit ProfileView(std::span<const std::uint8_t> levels) : levels_(levels) {}

  std::span<const std::uint8_t> levels() const { return levels_; }
  int level(int dim) const { return levels_[static_cast<std::size_t>(dim)]; }
  int total_usage() const;
  /// An owning copy in canonical form.
  Profile canonical(const ProfileShape& shape) const;
  std::string describe() const;

 private:
  std::span<const std::uint8_t> levels_;
};

/// The packed key of the canonical form of raw `levels` (any order within a
/// group) — Profile::from_levels(shape, levels).canonical(shape).pack(shape)
/// without the heap: the ledger recomputes it on every place and remove.
ProfileKey pack_canonical(const ProfileShape& shape, std::span<const int> levels);

/// The best profile of a shape: full utilization in every dimension
/// (paper §V-A: "the profile with the maximum value across all resource
/// dimensions").
Profile best_profile(const ProfileShape& shape);

}  // namespace prvm
