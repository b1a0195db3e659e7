#include "profile/profile.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <sstream>

#include "common/check.hpp"
#include "common/stats.hpp"

namespace prvm {

const char* to_string(ResourceKind kind) {
  switch (kind) {
    case ResourceKind::kCpu: return "cpu";
    case ResourceKind::kMemory: return "memory";
    case ResourceKind::kDisk: return "disk";
  }
  return "?";
}

namespace {
int bits_for_levels(int capacity) {
  // Levels range over [0, capacity]; we need ceil(log2(capacity + 1)) bits.
  return std::bit_width(static_cast<unsigned>(capacity));
}
}  // namespace

ProfileShape::ProfileShape(std::vector<DimensionGroup> groups) : groups_(std::move(groups)) {
  PRVM_REQUIRE(!groups_.empty(), "shape needs at least one dimension group");
  offsets_.reserve(groups_.size());
  bits_.reserve(groups_.size());
  for (const DimensionGroup& g : groups_) {
    PRVM_REQUIRE(g.count >= 1, "dimension group must have at least one dimension");
    PRVM_REQUIRE(g.capacity >= 1, "dimension capacity must be at least one level");
    offsets_.push_back(total_dims_);
    bits_.push_back(bits_for_levels(g.capacity));
    total_dims_ += g.count;
    total_capacity_ += g.count * g.capacity;
    key_bits_ += g.count * bits_.back();
  }
  PRVM_REQUIRE(key_bits_ <= 64,
               "profile does not fit a 64-bit key; reduce dimensions or quantization levels");
}

int ProfileShape::dim_capacity(int dim) const {
  PRVM_REQUIRE(dim >= 0 && dim < total_dims_, "dimension index out of range");
  for (std::size_t g = 0; g + 1 < groups_.size(); ++g) {
    if (dim < offsets_[g] + groups_[g].count) return groups_[g].capacity;
  }
  return groups_.back().capacity;
}

bool ProfileShape::groups_same(const ProfileShape& other) const {
  if (groups_.size() != other.groups_.size()) return false;
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    const DimensionGroup& a = groups_[g];
    const DimensionGroup& b = other.groups_[g];
    if (a.kind != b.kind || a.count != b.count || a.capacity != b.capacity) return false;
  }
  return true;
}

std::string ProfileShape::describe() const {
  std::ostringstream os;
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    if (g) os << " + ";
    os << groups_[g].count << 'x' << to_string(groups_[g].kind) << '/' << groups_[g].capacity;
  }
  return os.str();
}

Profile Profile::zero(const ProfileShape& shape) {
  return Profile(std::vector<int>(static_cast<std::size_t>(shape.total_dims()), 0));
}

Profile Profile::from_levels(const ProfileShape& shape, std::vector<int> levels) {
  PRVM_REQUIRE(static_cast<int>(levels.size()) == shape.total_dims(),
               "level count does not match shape");
  for (int d = 0; d < shape.total_dims(); ++d) {
    PRVM_REQUIRE(levels[static_cast<std::size_t>(d)] >= 0 &&
                     levels[static_cast<std::size_t>(d)] <= shape.dim_capacity(d),
                 "level out of [0, capacity]");
  }
  return Profile(std::move(levels));
}

void Profile::assign_levels(const ProfileShape& shape, std::span<const int> levels) {
  PRVM_REQUIRE(static_cast<int>(levels.size()) == shape.total_dims(),
               "level count does not match shape");
  for (int d = 0; d < shape.total_dims(); ++d) {
    PRVM_REQUIRE(levels[static_cast<std::size_t>(d)] >= 0 &&
                     levels[static_cast<std::size_t>(d)] <= shape.dim_capacity(d),
                 "level out of [0, capacity]");
  }
  levels_.assign(levels.begin(), levels.end());
}

Profile Profile::unpack(const ProfileShape& shape, ProfileKey key) {
  std::vector<int> levels(static_cast<std::size_t>(shape.total_dims()), 0);
  // Dimensions are packed lowest-index-first in the low bits.
  int dim = 0;
  for (std::size_t g = 0; g < shape.group_count(); ++g) {
    const int bits = shape.group_bits(g);
    const ProfileKey mask = (ProfileKey{1} << bits) - 1;
    for (int i = 0; i < shape.groups()[g].count; ++i, ++dim) {
      levels[static_cast<std::size_t>(dim)] = static_cast<int>(key & mask);
      key >>= bits;
    }
  }
  PRVM_REQUIRE(key == 0, "key has stray high bits for this shape");
  return from_levels(shape, std::move(levels));
}

namespace {

template <typename Level>
std::string describe_levels(std::span<const Level> levels) {
  std::ostringstream os;
  os << '[';
  for (std::size_t d = 0; d < levels.size(); ++d) {
    if (d) os << ',';
    os << static_cast<int>(levels[d]);
  }
  os << ']';
  return os.str();
}

}  // namespace

int Profile::total_usage() const { return std::accumulate(levels_.begin(), levels_.end(), 0); }

int ProfileView::total_usage() const {
  return std::accumulate(levels_.begin(), levels_.end(), 0);
}

Profile ProfileView::canonical(const ProfileShape& shape) const {
  return Profile::from_levels(shape, {levels_.begin(), levels_.end()}).canonical(shape);
}

ProfileKey pack_canonical(const ProfileShape& shape, std::span<const int> levels) {
  PRVM_REQUIRE(static_cast<int>(levels.size()) == shape.total_dims(),
               "level count does not match shape");
  // A key packs at most 64 dimensions (one bit each at the least), so one
  // group never needs more than 64 slots of stack.
  int sorted[64];
  ProfileKey key = 0;
  int shift = 0;
  for (std::size_t g = 0; g < shape.group_count(); ++g) {
    const int count = shape.groups()[g].count;
    const int bits = shape.group_bits(g);
    std::copy_n(levels.begin() + shape.group_offset(g), count, sorted);
    std::sort(sorted, sorted + count, std::greater<int>());
    for (int i = 0; i < count; ++i, shift += bits) {
      key |= static_cast<ProfileKey>(sorted[i]) << shift;
    }
  }
  return key;
}

double Profile::utilization(const ProfileShape& shape) const {
  return static_cast<double>(total_usage()) / static_cast<double>(shape.total_capacity());
}

double Profile::variance(const ProfileShape& shape) const {
  std::vector<double> normalized(levels_.size());
  for (std::size_t d = 0; d < levels_.size(); ++d) {
    normalized[d] =
        static_cast<double>(levels_[d]) / static_cast<double>(shape.dim_capacity(static_cast<int>(d)));
  }
  return dimension_variance(normalized);
}

bool Profile::is_canonical(const ProfileShape& shape) const {
  for (std::size_t g = 0; g < shape.group_count(); ++g) {
    const int off = shape.group_offset(g);
    for (int i = 1; i < shape.groups()[g].count; ++i) {
      if (levels_[static_cast<std::size_t>(off + i - 1)] <
          levels_[static_cast<std::size_t>(off + i)]) {
        return false;
      }
    }
  }
  return true;
}

Profile Profile::canonical(const ProfileShape& shape) const {
  std::vector<int> sorted = levels_;
  for (std::size_t g = 0; g < shape.group_count(); ++g) {
    const auto off = static_cast<std::ptrdiff_t>(shape.group_offset(g));
    std::sort(sorted.begin() + off, sorted.begin() + off + shape.groups()[g].count,
              std::greater<int>());
  }
  return Profile(std::move(sorted));
}

ProfileKey Profile::pack(const ProfileShape& shape) const {
  PRVM_REQUIRE(is_canonical(shape), "pack requires a canonical profile");
  ProfileKey key = 0;
  int shift = 0;
  int dim = 0;
  for (std::size_t g = 0; g < shape.group_count(); ++g) {
    const int bits = shape.group_bits(g);
    for (int i = 0; i < shape.groups()[g].count; ++i, ++dim) {
      key |= static_cast<ProfileKey>(levels_[static_cast<std::size_t>(dim)]) << shift;
      shift += bits;
    }
  }
  return key;
}

bool Profile::is_best(const ProfileShape& shape) const {
  for (int d = 0; d < shape.total_dims(); ++d) {
    if (levels_[static_cast<std::size_t>(d)] != shape.dim_capacity(d)) return false;
  }
  return true;
}

std::string Profile::describe() const { return describe_levels(levels()); }

std::string ProfileView::describe() const { return describe_levels(levels_); }

Profile best_profile(const ProfileShape& shape) {
  std::vector<int> levels;
  levels.reserve(static_cast<std::size_t>(shape.total_dims()));
  for (int d = 0; d < shape.total_dims(); ++d) levels.push_back(shape.dim_capacity(d));
  return Profile::from_levels(shape, std::move(levels));
}

}  // namespace prvm
